package core

import "testing"

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	d := c.withDefaults()
	if d.TH != 250 {
		t.Errorf("TH = %d, want 250 (TRH/2)", d.TH)
	}
	if d.TG != 200 {
		t.Errorf("TG = %d, want 200 (80%% of TH)", d.TG)
	}
	if g := c.GroupSize(); g != 128 {
		t.Errorf("GroupSize = %d, want 128", g)
	}
	if b := c.RCTEntryBytes(); b != 1 {
		t.Errorf("RCTEntryBytes = %d, want 1", b)
	}
	if got := c.RCTBytes(); got != 4<<20 {
		t.Errorf("RCTBytes = %d, want 4 MB", got)
	}
	if got := c.MetaRows(); got != 512 {
		t.Errorf("MetaRows = %d, want 512", got)
	}
}

func TestStorageMatchesTable4(t *testing.T) {
	s := Default().Storage()
	if s.GCTEntryBits != 8 || s.GCTBytes != 32*1024 {
		t.Errorf("GCT: %d bits, %d bytes; want 8 bits, 32 KB", s.GCTEntryBits, s.GCTBytes)
	}
	if s.RCCEntryBits != 24 || s.RCCBytes != 24*1024 {
		t.Errorf("RCC: %d bits, %d bytes; want 24 bits, 24 KB", s.RCCEntryBits, s.RCCBytes)
	}
	if s.RITActEntryBits != 8 || s.RITActBytes != 512 {
		t.Errorf("RIT-ACT: %d bits, %d bytes; want 8 bits, 0.5 KB", s.RITActEntryBits, s.RITActBytes)
	}
	// Table 4 total: 56.5 KB.
	if s.TotalBytes != 56*1024+512 {
		t.Errorf("Total = %d bytes, want 57856 (56.5 KB)", s.TotalBytes)
	}
}

func TestForThresholdScalesStructures(t *testing.T) {
	c := ForThreshold(250)
	if c.GCTEntries != 64*1024 || c.RCCEntries != 16*1024 {
		t.Errorf("TRH=250: GCT=%d RCC=%d, want 64K/16K", c.GCTEntries, c.RCCEntries)
	}
	c = ForThreshold(125)
	if c.GCTEntries != 128*1024 || c.RCCEntries != 32*1024 {
		t.Errorf("TRH=125: GCT=%d RCC=%d, want 128K/32K", c.GCTEntries, c.RCCEntries)
	}
	d := c.withDefaults()
	if d.TH != 62 || d.TG != 49 {
		t.Errorf("TRH=125: TH=%d TG=%d, want 62/49", d.TH, d.TG)
	}
	if c := ForThreshold(4800); c.RCCEntries != 864 || c.Validate() != nil {
		t.Errorf("TRH=4800: RCC=%d (%v), want 853 rounded up to 864 whole 16-way sets", c.RCCEntries, c.Validate())
	}
	if got := ForThreshold(0); got.TRH != 500 {
		t.Errorf("ForThreshold(0) should fall back to default, got TRH=%d", got.TRH)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := Default()
		mut(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero rows", mk(func(c *Config) { c.Rows = 0 })},
		{"tiny TRH", mk(func(c *Config) { c.TRH = 1 })},
		{"TH above TRH/2", mk(func(c *Config) { c.TH = 251 })},
		{"TG >= TH", mk(func(c *Config) { c.TG = 250 })},
		{"no GCT entries", mk(func(c *Config) { c.GCTEntries = 0 })},
		{"bad RCC ways", mk(func(c *Config) { c.RCCWays = 3 })},
		{"both ablations", mk(func(c *Config) { c.NoGCT = true; c.NoRCC = true })},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestAblationConfigsValid(t *testing.T) {
	noGCT := Default()
	noGCT.NoGCT = true
	if err := noGCT.Validate(); err != nil {
		t.Errorf("NoGCT config rejected: %v", err)
	}
	noRCC := Default()
	noRCC.NoRCC = true
	if err := noRCC.Validate(); err != nil {
		t.Errorf("NoRCC config rejected: %v", err)
	}
}

func TestWideThresholdUsesTwoByteEntries(t *testing.T) {
	c := Default()
	c.TRH = 1024
	c.TH = 512
	c.TG = 400
	if b := c.RCTEntryBytes(); b != 2 {
		t.Errorf("RCTEntryBytes = %d, want 2 for TH=512", b)
	}
	if got := c.MetaRows(); got != 1024 {
		t.Errorf("MetaRows = %d, want 1024 for 8 MB RCT", got)
	}
}

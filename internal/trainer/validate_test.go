package trainer

import (
	"strings"
	"testing"

	"repro/internal/collective"
)

// fakeCompression satisfies the Compression interface without being a
// Codec or a Policy — Validate must reject it before Resolve panics.
type fakeCompression struct{}

func (fakeCompression) String() string { return "bogus" }

// TestConfigValidate exercises the error paths that used to be
// scattered panics: each invalid configuration comes back as a
// descriptive error from Validate (so cmds can report it cleanly)
// while a valid one passes.
func TestConfigValidate(t *testing.T) {
	for _, net := range []testNet{freeNet, tcp40} {
		if err := overlapCfg(4, net, true).Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no workers", func(c *Config) { c.Workers = 0 }, "Workers"},
		{"no model", func(c *Config) { c.Model = nil }, "required"},
		{"no data", func(c *Config) { c.Train = nil }, "datasets"},
		{"foreign compression type", func(c *Config) {
			c.Compression = fakeCompression{}
		}, "Codec or a compress.Policy"},
		{"unknown substrate", func(c *Config) { c.Comm = CommCluster + 1 }, "unknown CommMode"},
		{"whole-gradient bucketed adasum", func(c *Config) { c.PerLayer = false }, "PerLayer"},
		{"adasum over ring", func(c *Config) { c.Strategy = collective.StrategyRing }, "ReduceSum combiner"},
		{"sum over rvh", func(c *Config) {
			c.Reduction = ReduceSum
			c.Strategy = collective.StrategyRVH
		}, "StrategyRing"},
	}
	for _, tc := range cases {
		cfg := overlapCfg(4, tcp40, true)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted an invalid config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

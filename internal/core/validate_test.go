package core

import (
	"errors"
	"testing"
	"time"

	"medsplit/internal/nn"
	"medsplit/internal/transport"
)

// Consolidated config validation: every rule in ServerConfig.validate
// and PlatformConfig.validate, table-driven. NewServer/NewPlatform are
// the only gates, so these tables are the contract.
func TestServerConfigValidationTable(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 61)
	flat := flatten(train)
	_, back := buildSplitMLP(t, 261, flat.X.Dim(1), 2)
	broker := NewRejoinBroker()
	defer broker.Close()

	valid := func() ServerConfig {
		return ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 2, Rounds: 4}
	}
	cases := []struct {
		name string
		mut  func(*ServerConfig)
		ok   bool
	}{
		{"valid", nil, true},
		{"nil back", func(c *ServerConfig) { c.Back = nil }, false},
		{"nil optimizer", func(c *ServerConfig) { c.Opt = nil }, false},
		{"zero platforms", func(c *ServerConfig) { c.Platforms = 0 }, false},
		{"negative platforms", func(c *ServerConfig) { c.Platforms = -1 }, false},
		{"zero rounds", func(c *ServerConfig) { c.Rounds = 0 }, false},
		{"negative start round", func(c *ServerConfig) { c.StartRound = -1 }, false},
		{"start round past end", func(c *ServerConfig) { c.StartRound = 4 }, false},
		{"start round in range", func(c *ServerConfig) { c.StartRound = 3 }, true},
		{"unknown mode", func(c *ServerConfig) { c.Mode = RoundMode(9) }, false},
		{"label sharing without loss", func(c *ServerConfig) { c.LabelSharing = true }, false},
		{"label sharing with loss", func(c *ServerConfig) {
			c.LabelSharing = true
			c.Loss = nn.SoftmaxCrossEntropy{}
		}, true},
		{"negative checkpoint every", func(c *ServerConfig) { c.CheckpointEvery = -2 }, false},
		{"checkpoint every without dir", func(c *ServerConfig) { c.CheckpointEvery = 5 }, false},
		{"checkpoint every with dir", func(c *ServerConfig) {
			c.CheckpointEvery = 5
			c.CheckpointDir = t.TempDir()
		}, true},
		{"recovery without broker", func(c *ServerConfig) {
			c.Recovery = &RecoveryConfig{Policy: WaitForRejoin, Window: time.Second}
		}, false},
		{"recovery with concat", func(c *ServerConfig) {
			c.Mode = RoundModeConcat
			c.Recovery = &RecoveryConfig{Policy: WaitForRejoin, Window: time.Second, Broker: broker}
		}, false},
		{"recovery sequential", func(c *ServerConfig) {
			c.Recovery = &RecoveryConfig{Policy: ProceedWithout, Window: time.Second, Broker: broker}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := NewServer(cfg)
			if tc.ok && err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid config accepted")
				}
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("err = %v, want ErrConfig", err)
				}
			}
		})
	}
}

func TestPlatformConfigValidationTable(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 62)
	flat := flatten(train)
	front, _ := buildSplitMLP(t, 271, flat.X.Dim(1), 2)

	valid := func() PlatformConfig {
		return PlatformConfig{
			ID: 0, Front: front, Opt: &nn.SGD{}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat, Batch: 4, Rounds: 4,
		}
	}
	cases := []struct {
		name string
		mut  func(*PlatformConfig)
		ok   bool
	}{
		{"valid", nil, true},
		{"nil front", func(c *PlatformConfig) { c.Front = nil }, false},
		{"nil optimizer", func(c *PlatformConfig) { c.Opt = nil }, false},
		{"nil shard", func(c *PlatformConfig) { c.Shard = nil }, false},
		{"zero batch", func(c *PlatformConfig) { c.Batch = 0 }, false},
		{"zero rounds", func(c *PlatformConfig) { c.Rounds = 0 }, false},
		{"negative start round", func(c *PlatformConfig) { c.StartRound = -1 }, false},
		{"start round past end", func(c *PlatformConfig) { c.StartRound = 9 }, false},
		{"label-private without loss", func(c *PlatformConfig) { c.Loss = nil }, false},
		{"label sharing drops the loss requirement", func(c *PlatformConfig) {
			c.LabelSharing = true
			c.Loss = nil
		}, true},
		{"negative checkpoint every", func(c *PlatformConfig) { c.CheckpointEvery = -1 }, false},
		{"checkpoint every without dir", func(c *PlatformConfig) { c.CheckpointEvery = 2 }, false},
		{"checkpoint every with dir", func(c *PlatformConfig) {
			c.CheckpointEvery = 2
			c.CheckpointDir = t.TempDir()
		}, true},
		{"redial without window", func(c *PlatformConfig) {
			c.Redial = func() (transport.Conn, error) { return nil, nil }
		}, false},
		{"window without redial", func(c *PlatformConfig) { c.RejoinWindow = time.Second }, false},
		{"redial with window", func(c *PlatformConfig) {
			c.Redial = func() (transport.Conn, error) { return nil, nil }
			c.RejoinWindow = time.Second
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := NewPlatform(cfg)
			if tc.ok && err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid config accepted")
				}
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("err = %v, want ErrConfig", err)
				}
			}
		})
	}
}

// Every round mode's String name parses back to the mode; nothing else
// parses.
func TestParseRoundMode(t *testing.T) {
	for m := RoundModeSequential; m <= RoundModeConcat; m++ {
		if got, err := ParseRoundMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseRoundMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	// The staleness cap is a number, not a mode: its former mode names
	// no longer parse.
	for _, bad := range []string{"", "Sequential", "stale", "bounded-staleness", "splitfed", "concat,splitfed", RoundMode(9).String()} {
		if _, err := ParseRoundMode(bad); !errors.Is(err, ErrConfig) {
			t.Fatalf("ParseRoundMode(%q) err = %v, want ErrConfig", bad, err)
		}
	}
}

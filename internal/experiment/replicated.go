package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/transport"
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// replicaTier is the in-process warm-standby tier behind a replicated
// split run: the leader's write-ahead log, one follower per replica
// (each with its own WAL and its own identically initialized back
// half), and the replication streams joining them. RunSplit wires the
// tier into the server config and drives the session through run.
type replicaTier struct {
	cfg        Config
	codec      wire.Codec
	leaderLog  *wal.Log
	leaderEnds []transport.Conn // leader side of each replication stream
	followers  []*core.Follower
	backs      []*nn.Sequential // follower back halves, by follower index
	logs       []*wal.Log       // follower WALs
	tmpDir     string           // non-empty when we own a temp WAL root
	closeOnce  sync.Once
}

// newReplicaTier opens the WALs and builds the followers. WALDir hosts
// a "leader" subdirectory plus one "follower-N" per replica; an empty
// WALDir uses a private temporary root removed by close.
func newReplicaTier(cfg Config, codec wire.Codec) (*replicaTier, error) {
	tr := &replicaTier{cfg: cfg, codec: codec}
	base := cfg.WALDir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "medsplit-wal-")
		if err != nil {
			return nil, fmt.Errorf("experiment: WAL root: %w", err)
		}
		tr.tmpDir = base
	}
	fail := func(err error) (*replicaTier, error) {
		tr.close()
		return nil, err
	}
	var err error
	tr.leaderLog, err = wal.Open(filepath.Join(base, "leader"), wal.Options{})
	if err != nil {
		return fail(err)
	}
	// Each follower keeps a full back half: promotion installs the
	// leader's last base snapshot into it and re-executes the logged
	// steps on it, so it serves the weights the dead leader held.
	built, err := buildModels(cfg, cfg.Replicas)
	if err != nil {
		return fail(err)
	}
	for i, m := range built {
		cut := m.DefaultCut
		if cfg.Cut > 0 {
			cut = cfg.Cut
		}
		_, b, serr := models.Split(m.Net, cut)
		if serr != nil {
			return fail(serr)
		}
		flog, oerr := wal.Open(filepath.Join(base, fmt.Sprintf("follower-%d", i)), wal.Options{})
		if oerr != nil {
			return fail(oerr)
		}
		leaderEnd, followerEnd := transport.Pipe()
		f, ferr := core.NewFollower(core.FollowerConfig{
			Platforms: cfg.Platforms,
			Conn:      followerEnd,
			Log:       flog,
		})
		if ferr != nil {
			flog.Close()
			return fail(ferr)
		}
		tr.backs = append(tr.backs, b)
		tr.logs = append(tr.logs, flog)
		tr.leaderEnds = append(tr.leaderEnds, leaderEnd)
		tr.followers = append(tr.followers, f)
	}
	return tr, nil
}

// close releases the tier's durable resources: every WAL, and the
// temporary root when the tier created one. Idempotent.
func (tr *replicaTier) close() {
	tr.closeOnce.Do(func() {
		if tr.leaderLog != nil {
			tr.leaderLog.Close()
		}
		for _, l := range tr.logs {
			l.Close()
		}
		if tr.tmpDir != "" {
			os.RemoveAll(tr.tmpDir)
		}
	})
}

// template builds the promoted server's configuration from the run's
// Config — the same knobs the dead leader ran, which the re-executed
// steps depend on, with the follower's own back half. StartRound and
// Mode are derived by Promote.
func (tr *replicaTier) template(follower int) core.ServerConfig {
	scfg := core.ServerConfig{
		Back:            tr.backs[follower],
		Opt:             &nn.SGD{LR: tr.cfg.LR},
		Platforms:       tr.cfg.Platforms,
		Rounds:          tr.cfg.Rounds,
		ClipGrads:       5,
		L1SyncEvery:     tr.cfg.L1SyncEvery,
		EvalEvery:       tr.cfg.EvalEvery,
		CheckpointEvery: tr.cfg.CheckpointEvery,
		CheckpointDir:   tr.cfg.CheckpointDir,
		Codec:           tr.codec,
	}
	if tr.cfg.LabelSharing {
		scfg.LabelSharing = true
		scfg.Loss = newLoss()
	}
	return scfg
}

// run drives a replicated session: the leader serves, followers log
// the replication stream, platforms train. If the leader dies (the
// KillLeaderAt fault, or any genuine failure), the most caught-up
// healthy follower promotes, adopts the redialed platforms through the
// broker, and finishes the session. Returns the platform stats and,
// when a failover happened, the surviving back half (whose weights the
// digest must fold instead of the dead leader's).
func (tr *replicaTier) run(srv *core.Server, platforms []*core.Platform, serverConns, platformConns []transport.Conn, broker *core.RejoinBroker) ([]*core.PlatformStats, *nn.Sequential, error) {
	K := len(platforms)
	stats := make([]*core.PlatformStats, K)
	perrs := make([]error, K)

	leaderDone := make(chan error, 1)
	go func() {
		err := srv.Serve(serverConns)
		// The leader is finished either way: release its platform links
		// and end the replication streams so followers see the close.
		for _, c := range serverConns {
			c.Close()
		}
		for _, c := range tr.leaderEnds {
			c.Close()
		}
		leaderDone <- err
	}()

	ferrs := make([]error, len(tr.followers))
	var fwg sync.WaitGroup
	for i, f := range tr.followers {
		fwg.Add(1)
		go func(i int, f *core.Follower) {
			defer fwg.Done()
			ferrs[i] = f.Run()
		}(i, f)
	}

	var pwg sync.WaitGroup
	for k, p := range platforms {
		pwg.Add(1)
		go func(k int, p *core.Platform) {
			defer pwg.Done()
			st, err := p.Run(platformConns[k])
			if err != nil {
				perrs[k] = fmt.Errorf("platform %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}(k, p)
	}

	lerr := <-leaderDone
	fwg.Wait()

	var surviving *nn.Sequential
	var promoErr error
	if lerr != nil {
		// Fail over: promote the most caught-up follower that survived
		// bootstrap and kept a clean stream.
		best := -1
		for i, f := range tr.followers {
			if ferrs[i] != nil {
				continue
			}
			if best < 0 || f.Watermark() > tr.followers[best].Watermark() {
				best = i
			}
		}
		switch {
		case broker == nil:
			promoErr = fmt.Errorf("experiment: leader died with no rejoin broker: %w", lerr)
		case best < 0:
			promoErr = fmt.Errorf("experiment: leader died and no follower survived: %w", lerr)
		default:
			promoted, conns, err := tr.followers[best].Promote(core.PromoteConfig{
				Server: tr.template(best),
				Broker: broker,
				Window: 30 * time.Second,
			})
			if err != nil {
				promoErr = fmt.Errorf("experiment: promotion: %w", err)
			} else {
				surviving = tr.backs[best]
				if serr := promoted.Serve(conns); serr != nil {
					promoErr = fmt.Errorf("experiment: promoted server: %w", serr)
				}
				for _, c := range conns {
					c.Close()
				}
			}
		}
		if promoErr != nil {
			// No promoted server will adopt the platforms parked in their
			// rejoin windows; cut the old links so they fail promptly
			// (their redial attempts still time out on their own).
			for _, c := range platformConns {
				c.Close()
			}
		}
	}
	pwg.Wait()
	for _, c := range platformConns {
		c.Close()
	}

	errs := append([]error{}, perrs...)
	if promoErr != nil {
		errs = append(errs, promoErr)
	}
	if lerr != nil && tr.cfg.KillLeaderAt == 0 {
		// An unscripted leader death is a real failure even if the
		// failover absorbed it.
		errs = append(errs, fmt.Errorf("server: %w", lerr))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return stats, surviving, nil
}

package core

import (
	"testing"

	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// killPointRound is the round every kill-point row breaks.
const killPointRound = 5

// TestKillPointTable breaks the victim platform's exchange at every
// step of both label modes' train tables and holds each recovered
// session to the undisturbed run's weights bit for bit. A platform →
// server step is severed on the platform's send (live rejoin under
// WaitForRejoin); a server → platform step is swallowed on the server's
// send (live rejoin), and separately kills the replicated leader on
// that send so its one follower promotes and finishes the session.
func TestKillPointTable(t *testing.T) {
	const rounds = 10
	for _, labelShare := range []bool{false, true} {
		name := "label-private"
		if labelShare {
			name = "label-sharing"
		}
		baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds, labelShare: labelShare})
		for _, st := range tableFor(labelShare) {
			hit := func(m *wire.Message) bool { return m.Type == st.typ && m.Round == killPointRound }
			row := name + "/" + st.typ.String()
			if st.up {
				t.Run(row+"/sever", func(t *testing.T) {
					params, stats := recoveryRun(t, recoveryOpts{
						rounds: rounds, policy: WaitForRejoin, recovery: true, labelShare: labelShare,
						wrapPlatform: func(c transport.Conn) transport.Conn { return &severConn{Conn: c, trigger: hit} },
					})
					assertParamsBitIdentical(t, row, baseline, params)
					assertTrainedRounds(t, stats, rounds)
				})
				continue
			}
			t.Run(row+"/swallow", func(t *testing.T) {
				params, stats := recoveryRun(t, recoveryOpts{
					rounds: rounds, policy: WaitForRejoin, recovery: true, labelShare: labelShare,
					wrapServer: func(c transport.Conn, _ *RejoinBroker) transport.Conn { return &swallowConn{Conn: c, trigger: hit} },
				})
				assertParamsBitIdentical(t, row, baseline, params)
				assertTrainedRounds(t, stats, rounds)
			})
			t.Run(row+"/failover", func(t *testing.T) {
				res := failoverRun(t, failoverOpts{
					rounds: rounds, labelShare: labelShare,
					kill: killOn(recoveryVictim, st.typ, killPointRound),
				})
				assertParamsBitIdentical(t, row, baseline, res.params)
				assertTrainedRounds(t, res.stats, rounds)
			})
		}
	}
}

// assertTrainedRounds checks that every platform trained every round.
func assertTrainedRounds(t *testing.T, stats []*PlatformStats, rounds int) {
	t.Helper()
	for k, st := range stats {
		if len(st.Rounds) != rounds {
			t.Fatalf("platform %d trained %d rounds, want %d", k, len(st.Rounds), rounds)
		}
	}
}

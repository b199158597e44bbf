package main

import (
	"time"

	"medsplit/internal/experiment"
)

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds
// carries the same number and TestManifestMatchesSpec keeps them equal.
const runSeconds = 10

// warmupShare of every run's rounds or requests is excluded from the
// steady-state figures.
const warmupShare = 0.05

// rateWindows is the number of equal-count windows the timing metrics
// are the median of; measuredSessions is the number of sessions (or
// load phases), each set up afresh, a run spreads them over;
// referenceSessions is the number of untraced sessions a traced run
// adds to compare its rate and its weights against.
const (
	rateWindows       = 20
	measuredSessions  = 5
	referenceSessions = 3
)

// latencyLimit is the serving latency limit: a response later than this
// after its due time counts as failed, and every request carries it as
// its deadline budget. It is a liveness limit, not a service level: this
// sandbox now and then stalls the whole process for 100-200 ms, and with
// a limit of 100 ms one serving run in 25 reported a few late or expired
// requests on an unchanged commit.
const latencyLimit = time.Second

// Topology seed of train_wan_stale. It does not follow -seed: the
// workload is one fixed fleet of clinics, and its virtual times are
// only comparable between commits on the same fleet. -seed drives the
// link jitter, the data, the weights and the samplers.
const clinicSeed = 23

// Loss thresholds, fixed from the seed commit's loss curves (see
// README.md, "Calibration"): every seed tried reached them within the
// first few hundred rounds, an order of magnitude before a measured
// session ends.
const (
	mlpLossTarget = 0.25
	vggLossTarget = 0.5
)

// Serving rates, calibrated once on the seed commit (see README.md,
// "Calibration"): closed-loop capacity there was ≈3500 requests/s, so
// r1 ≈ 15% and r2 ≈ 40% of it. Above that, open-loop latency on this
// two-core box follows the host's speed of the minute more than the
// program's: at 2000/s the median spread 15% between runs of one commit.
const (
	serveRateR1 = 500.0
	serveRateR2 = 1500.0
)

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string
	Moves  string // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd is the flat end-to-end list: every workload reports every
// one of these with --trace 0. "op" is a training round on the train_*
// workloads and an inference request on the serve_* workloads; on
// train_wan_stale the two time-based metrics are in virtual
// (simulated) time. The timing metrics are computed per window and
// reported as the median window (see windowed). The bounds come from
// the ten-seed spreads in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median over the run's set-ups (6 on train_*, 21 on serve_*) of: build data, models and parties, open WALs, connect, and run the session up to the first round's first message (serving: up to the first answered request per tenant and connection)"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "steady-state throughput: median over the run's 20 equal-count windows of rounds/s (train_*; virtual seconds on train_wan_stale) or answered requests/s (serve_*; equals the offered rate on the open-loop phases, capacity on serve_tcp_open.cap)"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median time of one op: round completion to round completion (train_*; virtual on train_wan_stale), or request due time to response (serve_*; send time on the closed loop); taken per window, then the median window"},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.000001,
		Doc: "framed bytes on the platform links per op, both directions: training-exchange messages per round, or request plus response per inference; exact"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "peak resident set of the benchmark process (VmHWM) at the end of the run"},
}

// perLayer is the flat per-layer list: every workload reports every one
// of these with --trace 1, as 0 where the layer does no work on that
// workload. Times are per round (training) or per request (serving)
// unless the name says otherwise.
var perLayer = []metricDef{
	{Name: "core.server_self_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp; flat @train_vgg_int8",
		Doc: "server goroutine time per round outside every wrapper, plus gate-bracketed time outside layer and optimizer wrappers: the scheduler, gradient zeroing and clipping"},
	{Name: "core.platform_self_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp",
		Doc: "platform 0 goroutine time per round outside every wrapper: sampling, batch gather, gradient zeroing and clipping"},
	{Name: "core.msgs_per_round", Unit: "count", Better: "lower", Moves: "ops_per_s @train_mlp_tcp",
		Doc: "protocol messages on the platform links per round"},
	{Name: "core.round_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic (the tail, demoted from end-to-end, see README)",
		Doc: "99th percentile wall-clock round time in the traced run"},
	{Name: "core.server_recv_wait_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @train_wan_stale",
		Doc: "server goroutine time per round blocked in Recv (its idle share)"},
	{Name: "core.platform_recv_wait_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @train_wan_stale",
		Doc: "platform 0 goroutine time per round blocked in Recv"},
	{Name: "core.repl_record_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl; 0 @train_mlp_tcp",
		Doc: "derived: server goroutine time per round between the cut-gradient encode and the follower-stream send, where the replicator snapshots state, builds the step record and appends it to the leader WAL"},
	{Name: "core.repl_ack_wait_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl; 0 @train_mlp_tcp",
		Doc: "server goroutine time per round blocked sending on the follower stream (the stream is a rendezvous pipe, so this is the wait for the follower to persist and apply the previous record)"},
	{Name: "core.repl_bytes_per_round", Unit: "B", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl",
		Doc: "framed bytes sent on the follower stream per round"},
	{Name: "core.trace_coverage", Unit: "ratio", Better: "higher", Moves: "self-check",
		Doc: "share of server round wall time covered by named spans"},
	{Name: "core.wall_rounds_per_s", Unit: "1/s", Better: "higher", Moves: "diagnostic",
		Doc: "wall-clock rounds per second of the traced run (the only wall-clock rate train_wan_stale reports)"},
	{Name: "core.rounds_to_target", Unit: "count", Better: "lower", Moves: "diagnostic (demoted from end-to-end, see README)",
		Doc: "first round whose 10-round mean platform loss is at or below the workload's threshold"},
	{Name: "core.final_loss", Unit: "nats", Better: "lower", Moves: "diagnostic",
		Doc: "mean platform loss over the last 10 rounds"},

	{Name: "nn.front_forward_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8; flat @train_mlp_tcp",
		Doc: "platform 0 front-half forward per round"},
	{Name: "nn.front_backward_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8; flat @train_mlp_tcp",
		Doc: "platform 0 front-half backward per round"},
	{Name: "nn.back_forward_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8; flat @train_mlp_tcp",
		Doc: "server back-half forward per round, all platforms' steps (includes the replayed forward on train_wan_stale)"},
	{Name: "nn.back_backward_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8; flat @train_mlp_tcp",
		Doc: "server back-half backward per round, all platforms' steps"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8",
		Doc: "platform 0 loss and loss gradient per round"},
	{Name: "nn.opt_step_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8",
		Doc: "optimizer steps per round: every server step plus platform 0's"},

	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "ops_per_s @train_vgg_int8, @serve_tcp_open.cap",
		Doc: "probe: tensor.MatMulInto at the largest matrix product the workload's layers perform"},
	{Name: "tensor.im2col_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_vgg_int8, @serve_tcp_open.cap",
		Doc: "probe: tensor.Im2ColInto at the workload's largest convolution input"},
	{Name: "tensor.flop_per_round", Unit: "FLOP", Better: "lower", Moves: "ops_per_s @train_vgg_int8",
		Doc: "matrix-product operations per round over all parties, computed from layer shapes and call counts, not measured"},

	{Name: "wire.encode_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp, @train_vgg_int8",
		Doc: "codec encode per round: server plus platform 0"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp, @train_vgg_int8",
		Doc: "codec decode per round: server plus platform 0"},
	{Name: "wire.frame_us_per_msg", Unit: "us", Better: "lower", Moves: "ops_per_s @train_mlp_tcp; op_p50_ms @serve_tcp_open.r1",
		Doc: "probe: Message.Write plus ReadPooled through a buffer at the workload's median payload"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher", Moves: "wire_bytes_per_op @train_vgg_int8; 0 elsewhere",
		Doc: "raw float32 bytes over encoded bytes on the activation path"},
	{Name: "compress.encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "ops_per_s @train_vgg_int8; 0 elsewhere",
		Doc: "raw megabytes encoded per second of encode time"},
	{Name: "compress.decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "ops_per_s @train_vgg_int8; 0 elsewhere",
		Doc: "raw megabytes decoded per second of decode time"},

	{Name: "transport.send_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @train_mlp_tcp; flat @train_vgg_int8",
		Doc: "time in Conn.Send per round: server plus platform 0 (on pipes a send is a rendezvous and includes the wait for the receiver)"},
	{Name: "transport.bytes_per_round", Unit: "B", Better: "lower", Moves: "ops_per_s @train_mlp_tcp",
		Doc: "framed bytes through the server's connections per round, follower stream included"},
	{Name: "transport.msgs_per_round", Unit: "count", Better: "lower", Moves: "ops_per_s @train_mlp_tcp",
		Doc: "frames through the server's connections per round, follower stream included"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower", Moves: "ops_per_s @train_mlp_tcp; op_p50_ms @serve_tcp_open.r1",
		Doc: "probe: header-only ping-pong on the workload's transport, median round trip"},

	{Name: "simnet.sim_ms_per_round", Unit: "ms", Better: "lower", Moves: "op_p50_ms @train_wan_stale",
		Doc: "virtual session time over rounds (Network.Elapsed / rounds)"},
	{Name: "simnet.link_sim_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @train_wan_stale",
		Doc: "virtual time per round a platform spends on its link or waiting for the server: PlatformClock minus its charged compute, mean over platforms"},
	{Name: "simnet.wall_us_per_msg", Unit: "us", Better: "lower", Moves: "core.wall_rounds_per_s @train_wan_stale",
		Doc: "probe: wall-clock cost of moving one header-only message through an ideal simnet link (half the ping-pong round trip)"},

	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl; 0 elsewhere",
		Doc: "probe: wal.Append at the observed step-record size with SyncEvery=1 (fsync every append, cmd/splitserver's default); the workload itself runs unsynced"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl; 0 elsewhere",
		Doc: "probe: the same append with SyncEvery=0, as the workload runs; the difference to wal.append_us is the fsync"},
	{Name: "wal.bytes_per_round", Unit: "B", Better: "lower", Moves: "ops_per_s @train_mlp_tcp_repl",
		Doc: "step-record bytes appended to the leader WAL per round, frame headers included"},

	{Name: "serve.residence_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @serve_*",
		Doc: "server-end residence: request Recv returns to response Send called, median"},
	{Name: "serve.residence_p99_ms", Unit: "ms", Better: "lower", Moves: "serve.infer_p99_ms @serve_tcp_open.r2",
		Doc: "the same, 99th percentile"},
	{Name: "serve.infer_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic (the tail, demoted from end-to-end, see README)",
		Doc: "client-observed 99th percentile, due time to response, in the traced run"},
	{Name: "serve.compute_ms.b2", Unit: "ms", Better: "lower", Moves: "op_p50_ms @serve_tcp_open.r1",
		Doc: "probe: back-half forward of one 2-row request"},
	{Name: "serve.compute_ms.b8", Unit: "ms", Better: "lower", Moves: "serve.infer_p99_ms @serve_tcp_open.r2; ops_per_s @serve_tcp_open.cap",
		Doc: "probe: back-half forward of a full 8-row batch"},
	{Name: "serve.batch_wait_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @serve_tcp_open.r1",
		Doc: "derived: serve.residence_p50_ms minus serve.compute_ms.b2"},
	{Name: "serve.batch_rows_mean", Unit: "rows", Better: "higher", Moves: "serve.infer_p99_ms @serve_tcp_open.r2; ops_per_s @serve_tcp_open.cap",
		Doc: "rows per back-half forward over the measured phase, from InferenceServer.Stats"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "failed ops", Doc: "requests refused at a full queue"},
	{Name: "serve.expired", Unit: "count", Better: "lower", Moves: "failed ops", Doc: "requests shed past their deadline"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "failed ops", Doc: "requests answered with an error, all causes"},
	{Name: "serve.client_overhead_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @serve_*",
		Doc: "client median minus server residence median: framing, sockets and the load generator"},

	{Name: "dataset.batch_us", Unit: "us", Better: "lower", Moves: "ops_per_s @train_mlp_tcp",
		Doc: "probe: BatchSampler.Next plus Dataset.BatchInto at the workload's batch size"},
	{Name: "dataset.synth_ms", Unit: "ms", Better: "lower", Moves: "setup_s @train_*",
		Doc: "experiment.BuildData (synthesis and sharding) in the measured session's set-up"},
	{Name: "models.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s",
		Doc: "experiment.BuildModel plus models.Split for every party in the measured session's set-up"},

	{Name: "go.mallocs_per_round", Unit: "count", Better: "lower", Moves: "peak_rss_mb, core.round_p99_ms @train_*",
		Doc: "heap allocations per round, whole process, after warm-up"},
	{Name: "go.alloc_kb_per_round", Unit: "KB", Better: "lower", Moves: "peak_rss_mb @train_*",
		Doc: "heap kilobytes allocated per round, whole process, after warm-up"},
	{Name: "go.mallocs_per_req", Unit: "count", Better: "lower", Moves: "serve.infer_p99_ms @serve_*",
		Doc: "heap allocations per request, whole process (server, sockets and load generator)"},
	{Name: "go.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower", Moves: "core.round_p99_ms, serve.infer_p99_ms",
		Doc: "stop-the-world pause per second of the measured phase"},

	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "self-check",
		Doc: "how late the open-loop generator sent, against the schedule, 99th percentile"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "self-check",
		Doc: "1 - traced/untraced throughput, both measured inside the traced run"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string // one line, goes into BENCHMARK.json
	// Training workloads.
	Train *trainDef
	// Serving workloads.
	Serve *serveDef
}

// trainDef parameterises a training workload.
type trainDef struct {
	Arch      experiment.Arch
	Platforms int
	Rows      int    // minibatch rows per platform
	Codec     string // "raw", "int8", ...
	Link      string // "tcp", "pipe" or "simnet"
	Replicate bool   // one warm follower plus leader/follower WALs
	Staleness int    // > 0 selects bounded staleness
	// PilotRounds is the length of the pilot session that precedes the
	// measured ones and calibrates their round count.
	PilotRounds int
	// LossTarget is the fixed loss threshold (see README "Calibration").
	LossTarget float64
	// MinRounds keeps a slow host from shrinking the measured sessions,
	// taken together, below what the windows and the loss target need.
	MinRounds int
}

// serveDef parameterises one phase of the serving workload.
type serveDef struct {
	Rate     float64 // open-loop offered rate, requests/s; 0 = closed loop
	InFlight int     // closed loop: requests in flight per connection
}

var workloads = []workload{
	{
		Name: "train_mlp_tcp",
		Why:  "MLP 3072-64-10, 2 platforms x 1 row, sequential, raw codec, loopback TCP: tiny tensors, so per-round fixed costs (weight update, core, framing, sockets) carry the round",
		Train: &trainDef{Arch: experiment.ArchMLP, Platforms: 2, Rows: 1, Codec: "raw", Link: "tcp",
			PilotRounds: 1200, LossTarget: mlpLossTarget, MinRounds: 2000},
	},
	{
		Name: "train_mlp_tcp_repl",
		Why:  "train_mlp_tcp plus one warm follower and leader/follower WALs: same server, every step is also snapshotted, logged and streamed, so the pair isolates the replication cost",
		Train: &trainDef{Arch: experiment.ArchMLP, Platforms: 2, Rows: 1, Codec: "raw", Link: "tcp", Replicate: true,
			PilotRounds: 600, LossTarget: mlpLossTarget, MinRounds: 2000},
	},
	{
		Name: "train_vgg_int8",
		Why:  "VGG-lite w8, 2 platforms x 16 rows, int8 activation codec, in-process pipes: conv GEMMs and 128 KB activations, so tensor/nn/compress do the work and sockets none",
		Train: &trainDef{Arch: experiment.ArchVGG, Platforms: 2, Rows: 16, Codec: "int8", Link: "pipe",
			PilotRounds: 60, LossTarget: vggLossTarget, MinRounds: 300},
	},
	{
		Name: "train_wan_stale",
		Why:  "MLP, 8 synthetic clinics x 4 rows with heterogeneous compute over simnet, bounded staleness K=1: the geo-distributed case on the relaxed scheduler, timed in virtual time",
		Train: &trainDef{Arch: experiment.ArchMLP, Platforms: 8, Rows: 4, Codec: "raw", Link: "simnet", Staleness: 1,
			PilotRounds: 150, LossTarget: mlpLossTarget, MinRounds: 600},
	},
	{
		Name:  "serve_tcp_open.r1",
		Why:   "serving, 2 VGG-lite tenants over 2 TCP connections, open-loop Poisson at ~15% of capacity: batching is bypassed, most requests wait out the flush timer alone",
		Serve: &serveDef{Rate: serveRateR1},
	},
	{
		Name:  "serve_tcp_open.r2",
		Why:   "the same server, open-loop Poisson at ~40% of capacity: batches fill and queueing appears",
		Serve: &serveDef{Rate: serveRateR2},
	},
	{
		Name:  "serve_tcp_open.cap",
		Why:   "the same server, closed loop with 16 requests in flight per connection, enough to keep both compute slots busy: capacity",
		Serve: &serveDef{InFlight: 16},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

package core

import (
	"sync"
	"testing"

	"medsplit/internal/compress"
	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// lossGradSpy sits on a server's connection end and decodes every loss
// gradient the server receives: the server's own view of the session.
type lossGradSpy struct {
	transport.Conn
	codec wire.Codec
	mu    sync.Mutex
	grads []*tensor.Tensor
	err   error
}

func (s *lossGradSpy) Recv() (*wire.Message, error) {
	m, err := s.Conn.Recv()
	if err == nil && m.Type == wire.MsgLossGrad {
		ts, derr := s.codec.DecodeTensors(m.Payload)
		s.mu.Lock()
		if derr != nil {
			s.err = derr
		} else {
			s.grads = append(s.grads, ts[0])
		}
		s.mu.Unlock()
	}
	return m, err
}

// labelSpy records the labels a platform's loss saw: the ground truth
// the server's guesses are scored against.
type labelSpy struct {
	nn.SoftmaxCrossEntropy
	labels [][]int
}

func (l *labelSpy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	l.labels = append(l.labels, append([]int(nil), labels...))
	return l.SoftmaxCrossEntropy.Loss(logits, labels)
}

// Label-private mode keeps labels off the wire as integers, and no
// more: the loss gradient a platform returns is (softmax − onehot)/n,
// whose one negative entry per row sits at the label. A server that
// takes each row's argmin recovers every label under every activation
// codec. This pins that recovery rate (1.0) from what crossed the
// server's connections, so a change that really hides labels has to
// move it.
func TestLabelPrivateModeLeaksLabelsToServer(t *testing.T) {
	const (
		K       = 2
		classes = 10
		rounds  = 20
	)
	train, _ := testData(t, classes, 160, 8, 91)
	flat := flatten(train)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(92))
	for _, name := range []string{"raw", "f16", "int8", "topk-0.25"} {
		t.Run(name, func(t *testing.T) {
			codec, err := compress.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fronts, back := buildFronts(t, 301, K, flat.X.Dim(1), classes)
			srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) { c.Codec = codec })
			spies := make([]*lossGradSpy, K)
			truth := make([]*labelSpy, K)
			platforms := make([]*Platform, K)
			serverConns := make([]transport.Conn, K)
			platformConns := make([]transport.Conn, K)
			for k := range platforms {
				s, p := transport.Pipe()
				spies[k] = &lossGradSpy{Conn: s, codec: codec}
				serverConns[k], platformConns[k] = spies[k], p
				truth[k] = &labelSpy{}
				platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
					c.Codec = codec
					c.Loss = truth[k]
				})
			}
			if _, err := RunConnected(srv, platforms, serverConns, platformConns); err != nil {
				t.Fatal(err)
			}

			rows, recovered := 0, 0
			for k, spy := range spies {
				if spy.err != nil {
					t.Fatalf("platform %d: decoding a loss gradient: %v", k, spy.err)
				}
				if len(spy.grads) != rounds || len(truth[k].labels) != rounds {
					t.Fatalf("platform %d: %d loss gradients seen for %d losses, want %d",
						k, len(spy.grads), len(truth[k].labels), rounds)
				}
				for r, g := range spy.grads {
					for i, label := range truth[k].labels[r] {
						rows++
						if argmin(g.Row(i)) == label {
							recovered++
						}
					}
				}
			}
			rate := float64(recovered) / float64(rows)
			t.Logf("%s: the server recovered %d of %d labels (rate %v)", name, recovered, rows, rate)
			if rate != 1 {
				t.Fatalf("label recovery rate %v (%d of %d), pinned at 1", rate, recovered, rows)
			}
		})
	}
}

func argmin(row []float32) int {
	best := 0
	for j, v := range row {
		if v < row[best] {
			best = j
		}
	}
	return best
}

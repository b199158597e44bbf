package paramserver

import (
	"bytes"
	"fmt"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// The reference-differential contract: after R rounds the protocol run
// leaves the global model byte-for-byte where a transport-free
// reference leaves it. The reference has no wire, no goroutines and no
// code shared with Server or Client beyond the public kernels — copy
// global → K replicas, local work, fold — so it pins every arithmetic
// order the protocol must keep: clients folded in id order, the
// float32(batch)-weighted gradient sum scaled once by 1/total, the
// weights[k]/total average, the sampler seed derivation. K=3 with
// unequal shards and batches, and a BatchNorm model so state averaging
// is covered.
const (
	refRounds = 5
	refLR     = 0.1
	refClip   = 5
	refSeed   = 40
)

var (
	refShardSizes = []int{70, 40, 25}
	refBatches    = []int{8, 5, 3}
)

func refShards(t *testing.T) []*dataset.Dataset {
	t.Helper()
	train, _ := flatData(t, 3, 135, 8, 71)
	shards := make([]*dataset.Dataset, len(refShardSizes))
	off := 0
	for k, size := range refShardSizes {
		idx := seqIdx(size)
		for i := range idx {
			idx[i] += off
		}
		off += size
		shards[k] = train.Subset(idx)
	}
	return shards
}

// reference trains global for refRounds rounds of scheme sc.
func reference(t *testing.T, sc *Scheme, global *nn.Sequential, shards []*dataset.Dataset, localSteps int) {
	t.Helper()
	in := shards[0].X.Dim(1)
	gp, gs := global.Params(), nn.CollectState(global)
	K := len(shards)
	replicas := make([]*nn.Sequential, K)
	samplers := make([]*dataset.BatchSampler, K)
	opts := make([]nn.Optimizer, K)
	for k := range replicas {
		replicas[k] = buildBN(uint64(900+k), in, 16, 3)
		samplers[k] = dataset.NewBatchSampler(seqIdx(shards[k].Len()), refBatches[k], rng.New(uint64(refSeed+k)^0x9e3779b97f4a7c15))
		opts[k] = &nn.SGD{LR: refLR}
	}
	srvOpt := &nn.SGD{LR: refLR}
	loss := nn.SoftmaxCrossEntropy{}
	sums := make([]*tensor.Tensor, len(gp))
	for i, p := range gp {
		sums[i] = tensor.New(p.G.Shape()...)
	}
	weights := make([]float64, K)
	shipped := make([][]*tensor.Tensor, K)
	states := make([][]*tensor.Tensor, K)
	for r := 0; r < refRounds; r++ {
		for k, rep := range replicas {
			rp, rs := rep.Params(), nn.CollectState(rep)
			if err := nn.CopyParams(rp, gp); err != nil {
				t.Fatal(err)
			}
			for i := range rs {
				rs[i].CopyFrom(gs[i])
			}
			backward := func() int {
				x, labels := shards[k].Batch(samplers[k].Next())
				nn.ZeroGrads(rp)
				_, g := loss.Loss(rep.Forward(x, true), labels)
				rep.Backward(g)
				return len(labels)
			}
			shipped[k] = make([]*tensor.Tensor, len(rp))
			switch sc {
			case SyncSGD:
				weights[k] = float64(backward())
				for i, p := range rp {
					shipped[k][i] = p.G
				}
			case FedAvg:
				for s := 0; s < localSteps; s++ {
					backward()
					opts[k].Step(rp)
				}
				weights[k] = float64(shards[k].Len())
				for i, p := range rp {
					shipped[k][i] = p.W
				}
			}
			states[k] = rs
		}
		switch sc {
		case SyncSGD:
			nn.ZeroGrads(gp)
			var total float64
			for _, s := range sums {
				s.Zero()
			}
			for k := range replicas {
				for i := range sums {
					sums[i].AxpyInPlace(float32(weights[k]), shipped[k][i])
				}
				total += weights[k]
			}
			for i, p := range gp {
				p.G.AxpyInPlace(float32(1/total), sums[i])
			}
			nn.ClipGrads(gp, refClip)
			srvOpt.Step(gp)
		case FedAvg:
			gw := make([]*tensor.Tensor, len(gp))
			for i, p := range gp {
				gw[i] = p.W
			}
			if err := nn.AverageInto(gw, shipped, weights); err != nil {
				t.Fatal(err)
			}
		}
		if err := nn.AverageInto(gs, states, weights); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProtocolMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		scheme     *Scheme
		localSteps int
	}{{SyncSGD, 1}, {FedAvg, 1}, {FedAvg, 4}} {
		t.Run(fmt.Sprintf("%s/steps=%d", tc.scheme.name, tc.localSteps), func(t *testing.T) {
			shards := refShards(t)
			in := shards[0].X.Dim(1)
			ref := buildBN(77, in, 16, 3)
			reference(t, tc.scheme, ref, shards, tc.localSteps)

			global := buildBN(77, in, 16, 3)
			ss := session{
				scheme: tc.scheme, global: global,
				replica: func(k int) *nn.Sequential { return buildBN(uint64(500+k), in, 16, 3) },
				shards:  shards, batches: refBatches, rounds: refRounds,
				lr: refLR, clip: refClip, localSteps: tc.localSteps, seed: refSeed,
			}
			if _, _, _, err := ss.run(t); err != nil {
				t.Fatal(err)
			}
			got := encodeModel(global)
			if !bytes.Equal(encodeModel(ref), got) {
				t.Fatal("protocol run diverged from the transport-free reference")
			}
			if bytes.Equal(got, encodeModel(buildBN(77, in, 16, 3))) {
				t.Fatal("model did not train")
			}
		})
	}
}

package tcpmodel

import (
	"math"
	"reflect"
	"testing"
	"time"

	"speedctx/internal/stats"
	"speedctx/internal/units"
)

// simulateReference is Simulate as it was before lossDraw: every random
// loss draw compares against 1 - math.Exp(cwnd*log(1-p)), and the loss
// branch halves through math.Max. It is kept only as the oracle that
// Simulate must match bit for bit, so every generated dataset byte stays
// what it was.
func simulateReference(path Path, spec TestSpec, rng *stats.RNG) Result {
	mss := path.mss()
	rtt := path.RTT
	if rtt <= 0 {
		rtt = 20 * time.Millisecond
	}
	rounds := int(spec.Duration / rtt)
	if rounds < 1 {
		rounds = 1
	}
	warmupRounds := int(spec.WarmupDiscard / rtt)
	if warmupRounds >= rounds {
		warmupRounds = rounds - 1
	}
	nconn := spec.Connections
	if nconn < 1 {
		nconn = 1
	}
	iw := float64(spec.InitialWindow)
	if iw <= 0 {
		iw = 10
	}

	capacityPkts := path.Capacity.BytesPerSecond() * rtt.Seconds() / float64(mss)
	bufferPkts := float64(path.BufferPackets)
	if bufferPkts <= 0 {
		bufferPkts = capacityPkts
	}
	rwndPkts := math.Inf(1)
	if path.RcvWindow > 0 {
		rwndPkts = float64(path.RcvWindow) / float64(mss)
		if rwndPkts < 1 {
			rwndPkts = 1
		}
	}

	flows := make([]flow, nconn)
	for i := range flows {
		flows[i] = flow{cwnd: iw, ssthresh: math.Inf(1), slowStart: true}
	}
	logKeep := 0.0
	if path.LossRate > 0 {
		logKeep = math.Log1p(-path.LossRate)
	}

	res := Result{Rounds: rounds}
	for r := 0; r < rounds; r++ {
		total := 0.0
		for i := range flows {
			if flows[i].cwnd > rwndPkts {
				flows[i].cwnd = rwndPkts
			}
			total += flows[i].cwnd
		}
		fit := capacityPkts + bufferPkts
		overflowLoss := total > fit
		deliverFrac := 1.0
		if total > capacityPkts {
			deliverFrac = capacityPkts / total
		}

		lossThisRound := false
		for i := range flows {
			f := &flows[i]
			if r >= warmupRounds {
				f.delivered += f.cwnd * deliverFrac
			}
			if spec.Congestion == BBR {
				fairShare := capacityPkts / float64(nconn)
				if f.slowStart {
					f.cwnd *= 2
					if f.cwnd >= fairShare {
						f.cwnd = fairShare * 1.05
						f.slowStart = false
					}
				} else if overflowLoss {
					lossThisRound = true
					f.cwnd = math.Max(fairShare, 2)
				}
				if f.cwnd > rwndPkts {
					f.cwnd = rwndPkts
				}
				continue
			}
			lost := overflowLoss
			if !lost && path.LossRate > 0 {
				pLoss := 1 - math.Exp(f.cwnd*logKeep)
				lost = rng.Float64() < pLoss
			}
			if lost {
				lossThisRound = true
				f.ssthresh = math.Max(f.cwnd/2, 2)
				f.cwnd = f.ssthresh
				f.slowStart = false
				continue
			}
			if f.slowStart {
				f.cwnd *= 2
				if f.cwnd >= f.ssthresh {
					f.cwnd = f.ssthresh
					f.slowStart = false
				}
				if f.cwnd > fit/float64(nconn) {
					f.slowStart = false
				}
			} else {
				f.cwnd++
			}
			if f.cwnd > rwndPkts {
				f.cwnd = rwndPkts
			}
		}
		if lossThisRound {
			res.LossEvents++
		}
	}

	measuredRounds := rounds - warmupRounds
	measured := time.Duration(measuredRounds) * rtt
	res.PerConnection = make([]units.Mbps, nconn)
	totalPkts := 0.0
	for i, f := range flows {
		res.PerConnection[i] = units.FromBytesPerSecond(f.delivered * float64(mss) / measured.Seconds())
		totalPkts += f.delivered
	}
	res.Goodput = units.FromBytesPerSecond(totalPkts * float64(mss) / measured.Seconds())
	if path.Capacity > 0 {
		res.Utilization = float64(res.Goodput) / float64(path.Capacity)
	}
	return res
}

// TestSimulateMatchesReference runs Simulate and the reference over
// randomized paths and specs, each from a fresh RNG of the same seed, and
// requires equal Results and equal RNG positions afterwards. The cases
// cover netsim-like paths, zero loss, BBR, heavy loss (s = cwnd*-log(1-p)
// well above 0.5, so draws fall through to the exact Exp) and unlimited
// receive windows on high-BDP paths.
func TestSimulateMatchesReference(t *testing.T) {
	const cases = 12000
	gen := stats.NewRNG(14)
	for c := 0; c < cases; c++ {
		path := Path{
			Capacity: units.Mbps(math.Exp(gen.Uniform(math.Log(0.5), math.Log(3000)))),
			RTT:      time.Duration(gen.Uniform(2, 150) * float64(time.Millisecond)),
		}
		switch c % 6 {
		case 0: // netsim-like: log-normal loss around 1.7e-5
			path.LossRate = math.Exp(gen.Normal(-11, 1))
		case 1:
			path.LossRate = 0
		case 2: // heavy loss, up to 0.999
			path.LossRate = gen.Uniform(0.05, 0.999)
		default:
			path.LossRate = math.Exp(gen.Uniform(math.Log(1e-8), math.Log(0.05)))
		}
		if c%3 != 0 {
			path.RcvWindow = units.Bytes(gen.Uniform(4, 4096)) * units.KiB
		}
		if gen.Float64() < 0.2 {
			path.BufferPackets = gen.Intn(500)
		}
		if gen.Float64() < 0.1 {
			path.MSS = 536 + gen.Intn(8500)
		}
		spec := TestSpec{
			Connections:   1 + gen.Intn(16),
			Duration:      time.Duration(gen.Uniform(0.2, 8) * float64(time.Second)),
			InitialWindow: gen.Intn(20),
		}
		spec.WarmupDiscard = time.Duration(gen.Float64() * float64(spec.Duration) / 2)
		if c%5 == 4 {
			spec.Congestion = BBR
		}

		seed := gen.Int63()
		gotRNG, wantRNG := stats.NewRNG(seed), stats.NewRNG(seed)
		got := Simulate(path, spec, gotRNG)
		want := simulateReference(path, spec, wantRNG)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: path %+v spec %+v seed %d:\n got %+v\nwant %+v",
				c, path, spec, seed, got, want)
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("case %d: RNG positions differ after the run (%d vs %d)", c, g, w)
		}
	}
}

// TestLossDrawMatchesExp checks lossDraw against the exact comparison at
// the draws where a wrong bracket would show: pLoss itself, its float
// neighbours, and the neighbours of both bracket bounds, over exponents
// from the subnormal range up to the fall-through region and the
// non-finite ones.
func TestLossDrawMatchesExp(t *testing.T) {
	exps := []float64{0, math.Copysign(0, -1), -5e-324, -1e-300, -1e-17, -1e-16,
		-1e-15, -3e-15, math.Inf(-1), math.NaN()}
	for s := 1e-14; s < 40; s *= 1.0137 {
		exps = append(exps, -s)
	}
	gen := stats.NewRNG(15)
	for i := 0; i < 2000; i++ {
		exps = append(exps, -gen.Uniform(0, 1.2))
	}
	for _, a := range exps {
		s := -a
		pLoss := 1 - math.Exp(a)
		var us []float64
		for _, x := range []float64{pLoss, s - s*s/2 - lossEps, s + lossEps, s - s*s/2, s} {
			us = append(us, x, math.Nextafter(x, -1), math.Nextafter(x, 2))
		}
		for _, u := range us {
			if !(u >= 0 && u < 1) {
				continue
			}
			if got, want := lossDraw(a, u), u < pLoss; got != want {
				t.Fatalf("lossDraw(%v, %v) = %v, want %v (pLoss %v)", a, u, got, want, pLoss)
			}
		}
	}
}

// simulateSink keeps BenchmarkSimulate's results live.
var simulateSink Result

// BenchmarkSimulate times one download test of each methodology over a
// netsim-typical path: 300 Mbps, 20 ms, 3e-5 random loss, with the
// receive window unlimited.
func BenchmarkSimulate(b *testing.B) {
	path := Path{Capacity: 300, RTT: 20 * time.Millisecond, LossRate: 3e-5}
	for _, tc := range []struct {
		name string
		spec TestSpec
	}{{"spec=ookla", OoklaSpec()}, {"spec=ndt", NDTSpec()}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simulateSink = Simulate(path, tc.spec, rng)
			}
		})
	}
}

package sim_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// arrival is one recorded Acquire: which calendar, and its arguments.
type arrival struct {
	srv     int32
	at, dur sim.Time
}

// recorded holds the arrival stream BenchmarkServerAcquire replays,
// captured once per test binary.
var recorded struct {
	once sync.Once
	ops  []arrival
	nsrv int
	err  error
}

// recordArrivals runs art-orig on a 16-core CC machine at small scale
// with the Acquire tap armed and returns every calendar arrival in
// simulation order. The run is the calendar's load in the paper's
// figures in miniature: about 1.2 M arrivals over 22 servers, two
// thirds of them backfills, into live windows of 8 k reservations on
// average (15 k at most), every one within 75 entries of the tail.
func recordArrivals() ([]arrival, int, error) {
	recorded.once.Do(func() {
		f, err := workload.Get("art-orig")
		if err != nil {
			recorded.err = err
			return
		}
		ids := map[*sim.Server]int32{}
		sim.SetAcquireTap(func(s *sim.Server, at, dur sim.Time) {
			id, ok := ids[s]
			if !ok {
				id = int32(len(ids))
				ids[s] = id
			}
			recorded.ops = append(recorded.ops, arrival{id, at, dur})
		})
		defer sim.SetAcquireTap(nil)
		_, recorded.err = core.New(core.DefaultConfig(core.CC, 16)).Run(f(workload.ScaleSmall))
		recorded.nsrv = len(ids)
	})
	return recorded.ops, recorded.nsrv, recorded.err
}

// BenchmarkServerAcquire replays a CC simulation's calendar arrivals
// (recordArrivals) into fresh servers, one op per Acquire: the appends,
// the backfills near the tail of a multi-thousand-entry live window,
// and the pruning behind them, in the proportions a real run makes.
// No data file is checked in; the stream is recorded in setup.
func BenchmarkServerAcquire(b *testing.B) {
	ops, nsrv, err := recordArrivals()
	if err != nil {
		b.Fatal(err)
	}
	srvs := make([]*sim.Server, nsrv)
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		for i := range srvs {
			srvs[i] = sim.NewServer("replay")
		}
		pass := ops[:min(len(ops), b.N-done)]
		b.StartTimer()
		for _, op := range pass {
			srvs[op.srv].Acquire(op.at, op.dur)
		}
		done += len(pass)
	}
}

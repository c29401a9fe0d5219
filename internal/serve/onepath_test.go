package serve

import (
	"context"
	"errors"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
)

// pathCounters is every counter a request may move, at all three levels.
type pathCounters struct {
	requests, hits, misses, coalesced, deduped, errors uint64
	engine                                             EngineStats
	backendCalls, backendBatches                       int64
}

// TestKernelRequestIsBatchOfOne pins that the kernel entrance and a
// one-kernel batch are the same request: asked twice on fresh services
// (a miss, then a hit or a second failure), they return the same results
// and errors, reach the backend the same way, and move every aggregate,
// and per-engine counter identically.
func TestKernelRequestIsBatchOfOne(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bmm := kernels.NewBMM(2, 48, 48, 48)
	cases := []struct {
		name                 string
		native, fail, panics bool // the engine: batches natively, always errors, panics once
		ctx                  context.Context
		k                    kernels.Kernel
		wantErr              [2]bool
	}{
		{name: "native-batch engine", native: true, k: bmm},
		{name: "per-kernel engine", k: bmm},
		{name: "erroring engine", fail: true, k: bmm, wantErr: [2]bool{true, true}},
		{name: "panicking engine", native: true, panics: true, k: bmm, wantErr: [2]bool{true, false}},
		{name: "network kernel", k: kernels.Kernel{Op: kernels.OpAllReduce, B: 4096, M: 1}, wantErr: [2]bool{true, true}},
		{name: "cancelled context", ctx: cancelled, k: bmm, wantErr: [2]bool{true, true}},
	}
	g := gpu.MustLookup("V100")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			// run asks a fresh service twice through ask and snapshots what
			// moved.
			run := func(ask func(*Service) (predict.Result, error)) ([2]predict.Result, [2]string, pathCounters) {
				stub := &batchStub{stubPredictor: stubPredictor{latency: 3, fail: tc.fail}}
				stub.panicOnce.Store(tc.panics)
				eng := predict.Engine(stub)
				if !tc.native {
					eng = stub.stubPredictor.engine()
				}
				svc := serviceOf(eng, Config{CacheSize: 16})
				var ress [2]predict.Result
				var errs [2]string
				for i := range ress {
					res, err := ask(svc)
					ress[i] = res
					if err != nil {
						errs[i] = err.Error()
					}
					if tc.ctx != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("call %d error = %v, want context.Canceled", i, err)
					}
				}
				st := svc.Stats()
				return ress, errs, pathCounters{
					requests: st.Requests, hits: st.CacheHits, misses: st.CacheMisses,
					coalesced: st.Coalesced, deduped: st.Deduped, errors: st.Errors,
					engine:       svc.EngineStats()[0],
					backendCalls: stub.calls.Load(), backendBatches: stub.batchCalls.Load(),
				}
			}
			kRes, kErr, kCount := run(func(svc *Service) (predict.Result, error) {
				return svc.PredictKernelEngine(ctx, "", tc.k, g)
			})
			bRes, bErr, bCount := run(func(svc *Service) (predict.Result, error) {
				outs, err := svc.PredictBatchEngine(ctx, "", []kernels.Kernel{tc.k}, g)
				if err != nil {
					return predict.Result{}, err
				}
				return outs[0].Result, outs[0].Err
			})
			if kRes != bRes || kErr != bErr {
				t.Errorf("kernel request = (%+v, %q), batch of one = (%+v, %q)", kRes, kErr, bRes, bErr)
			}
			if kCount != bCount {
				t.Errorf("counters differ:\nkernel request %+v\nbatch of one   %+v", kCount, bCount)
			}
			if got := [2]bool{kErr[0] != "", kErr[1] != ""}; got != tc.wantErr {
				t.Errorf("errors = %q, want failures %v", kErr, tc.wantErr)
			}
			if kCount.requests != 2 || kCount.backendBatches != 0 {
				t.Errorf("requests = %d, native batch calls = %d; want 2 and 0 (a round of one is a PredictKernel call)",
					kCount.requests, kCount.backendBatches)
			}
		})
	}
}

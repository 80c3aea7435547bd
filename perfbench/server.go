package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// planSpan is one Populations.RunPlan call, observed by the RunGrid hook.
type planSpan struct {
	key        string
	start, end time.Time
	// requested is the replica lookups the plan asks the ledger for:
	// cells × replicas.
	requested int
}

// unitSpan is one replica training, observed by the timing executor.
type unitSpan struct {
	unit       experiments.WorkUnit
	start, end time.Time
	res        *core.RunResult
}

// recorder collects the spans the benchmark's two hooks see. Both hooks
// sit at job and replica granularity, so they cost two clock reads per
// job and per replica and are installed in traced and untraced runs alike.
type recorder struct {
	mu    sync.Mutex
	plans []planSpan
	units []unitSpan
}

func (r *recorder) addPlan(p planSpan) {
	r.mu.Lock()
	r.plans = append(r.plans, p)
	r.mu.Unlock()
}

func (r *recorder) addUnit(u unitSpan) {
	r.mu.Lock()
	r.units = append(r.units, u)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() ([]planSpan, []unitSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]planSpan(nil), r.plans...), append([]unitSpan(nil), r.units...)
}

// timedExecutor wraps the in-process executor and records every replica
// it trains. A failed training fails its job, which the client counts.
type timedExecutor struct {
	inner experiments.Executor
	rec   *recorder
}

func (x timedExecutor) Train(ctx context.Context, u experiments.WorkUnit) (*core.RunResult, error) {
	start := time.Now()
	res, err := x.inner.Train(ctx, u)
	if err != nil {
		return nil, err
	}
	x.rec.addUnit(unitSpan{unit: u, start: start, end: time.Now(), res: res})
	return res, nil
}

// instance is one in-process server, built the way
// `nnrand serve -store DIR -ledger DIR` builds it: on-disk result store
// and replica ledger, every other option at its default. Two things are
// added from outside: a fresh population cache (what a new process's
// default cache is) with a timing executor around the in-process one,
// and a timing RunGrid hook around that cache's RunPlan.
type instance struct {
	svc       *server.Server
	hs        *http.Server
	served    chan error
	rec       *recorder
	cl        *client
	ledgerDir string
}

// startInstance serves a new server over the given directories on a
// loopback port and returns once /v1/readyz answers 200.
func startInstance(storeDir, ledgerDir string) (*instance, error) {
	rec := &recorder{}
	pops := experiments.NewPopulations(0)
	pops.SetExecutor(timedExecutor{inner: experiments.LocalExecutor{Pops: pops}, rec: rec})
	svc, err := server.New(server.Options{
		StoreDir:    storeDir,
		LedgerDir:   ledgerDir,
		Populations: pops,
		RunGrid: func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error) {
			start := time.Now()
			res, err := pops.RunPlan(ctx, plan, cfg)
			rec.addPlan(planSpan{
				key:       jobs.ResultKey(plan.ID(), cfg),
				start:     start,
				end:       time.Now(),
				requested: plan.Cells() * cfg.EffectiveReplicas(),
			})
			return res, err
		},
	})
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	in := &instance{
		svc:       svc,
		hs:        &http.Server{Handler: svc.Handler()},
		served:    make(chan error, 1),
		rec:       rec,
		cl:        newClient("http://" + ln.Addr().String()),
		ledgerDir: ledgerDir,
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	if err := in.cl.awaitReady(5 * time.Second); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close shuts the listener down, waits for in-flight handlers and the
// serve loop, then stops the job engine.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	in.cl.hc.CloseIdleConnections()
	in.svc.Close()
	return err
}

// freshDirs makes an empty store and ledger directory under root.
func freshDirs(root string) (store, ledger string, err error) {
	dir, err := os.MkdirTemp(root, "srv-*")
	if err != nil {
		return "", "", err
	}
	return filepath.Join(dir, "store"), filepath.Join(dir, "ledger"), nil
}

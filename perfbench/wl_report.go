package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"speedctx/internal/experiments"
)

// reportSeed maps the benchmark seed to speedctx's generation seed.
func reportSeed(seed int64) int64 { return 1000 + seed }

// runReport runs speedctx all at a fixed scale, cold (empty snapshot
// directory, so generation is included) and then warm, round after round
// until the window has passed; every warm output must equal its round's
// cold output byte for byte.
func runReport(e *env) (*result, error) {
	if e.trace {
		return runReportTraced(e)
	}
	bin := filepath.Join(e.bin, "speedctx")
	snaps := filepath.Join(e.work, "snapshots")
	args := []string{"all",
		"-scale", strconv.FormatFloat(e.size.reportScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(reportSeed(e.seed), 10),
		"-snapshot-dir", snaps}
	res := newResult()
	// Each child run is preceded by a kernel sample and followed by the
	// next one, so its times are scaled by the pair around it.
	cal := newCalibrator()
	type timed struct {
		secs, cpu float64
		mark      int // the kernel sample taken just before the run
	}
	run := func() ([]byte, timed, usage, error) {
		mark := cal.sample()
		out, secs, m, err := runChild(bin, args)
		return out, timed{secs, m.cpu, mark}, m, err
	}
	var cold, warm []timed
	var mem usage
	start := time.Now()
	for round := 0; round < e.size.reportRounds || time.Since(start) < e.dur(); round++ {
		if err := os.RemoveAll(snaps); err != nil {
			return nil, err
		}
		want, t, m, err := run()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("cold run: %v", err)
			continue
		}
		cold = append(cold, t)
		mem.peak, mem.rss = max(mem.peak, m.peak), append(mem.rss, m.rss...)
		for i := 0; i < e.size.reportWarm; i++ {
			got, t, _, err := run()
			res.Attempted++
			switch {
			case err != nil:
				res.Failed++
				res.fail("warm run: %v", err)
			case !bytes.Equal(got, want):
				res.Failed++
				res.fail("warm output (%d bytes) differs from cold output (%d bytes)", len(got), len(want))
			default:
				warm = append(warm, t)
			}
		}
	}
	cal.sample()
	e.printf("report: %d cold and %d warm runs of speedctx %v, %d failed\n", len(cold), len(warm), args, res.Failed)
	var coldS, coldScaled, warmS []float64
	for _, t := range cold {
		coldS = append(coldS, t.secs)
		coldScaled = append(coldScaled, t.secs*cal.scale(t.mark, t.mark+1))
	}
	var warmCPU, warmScaled []float64
	for _, t := range warm {
		warmS = append(warmS, t.secs)
		warmCPU = append(warmCPU, t.cpu*1000)
		warmScaled = append(warmScaled, t.cpu*1000*cal.scale(t.mark, t.mark+1))
	}
	e.named("report_cold_s", Median(coldS), "s")
	e.named("report_warm_s", Median(warmS), "s")
	cal.print(e)
	e.gate(res, "setup_s", Median(coldScaled), "s")
	mem.report(e, res, Median(warmCPU), Median(warmScaled))
	return res, nil
}

// runChild runs one program to completion, returning its standard
// output, wall time and memory: the peak from its rusage and its resident
// set sampled while it ran.
func runChild(bin string, args []string) ([]byte, float64, usage, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, usage{}, err
	}
	rss := sampleRSS(strconv.Itoa(cmd.Process.Pid))
	err := cmd.Wait()
	secs := time.Since(t0).Seconds()
	m := rss.stop()
	m.peak, m.cpu = maxRSSMiB(cmd.ProcessState), cmd.ProcessState.UserTime().Seconds()+cmd.ProcessState.SystemTime().Seconds()
	if err != nil {
		return nil, 0, m, fmt.Errorf("%v: %s", err, errb.Bytes())
	}
	return out.Bytes(), secs, m, nil
}

// runReportTraced hosts the report path in-process: one cold pass
// (empty snapshot directory) and two warm passes over the same Suite
// methods `speedctx all` calls, the first warm pass untraced for the
// overhead baseline.
func runReportTraced(e *env) (*result, error) {
	tr := NewTracer(true)
	snaps := filepath.Join(e.work, "snapshots")
	seed := reportSeed(e.seed)
	pass := func(root, cityName string) error {
		o := tr.Begin(root, 0, 0)
		defer o.End()
		s := experiments.NewSuite(e.size.reportScale, seed)
		s.SnapshotDir = snaps
		for _, id := range allCities {
			if err := tr.Time(cityName, o.ID(), func() error {
				_, err := s.City(id)
				return err
			}); err != nil {
				return err
			}
		}
		for _, id := range allCities {
			if err := tr.Time("core.fit", o.ID(), func() error {
				_, err := s.CityClassifier(id)
				return err
			}); err != nil {
				return err
			}
		}
		if err := tr.Time("experiments.tables", o.ID(), func() error { return runTables(s) }); err != nil {
			return err
		}
		return tr.Time("experiments.figures", o.ID(), func() error { return runFigures(s) })
	}
	t0 := time.Now()
	if err := pass("report.cold", "experiments.city_cold"); err != nil {
		return nil, err
	}
	coldS := time.Since(t0).Seconds()
	tr.SetOn(false)
	t0 = time.Now()
	if err := pass("report.warm", "experiments.city_warm"); err != nil {
		return nil, err
	}
	untraced := time.Since(t0).Seconds()
	tr.SetOn(true)
	rt := newRuntimeSampler(true)
	rt.start()
	t0 = time.Now()
	if err := pass("report.warm", "experiments.city_warm"); err != nil {
		return nil, err
	}
	traced := time.Since(t0).Seconds()
	rt.stop(1)

	res := newResult()
	res.Attempted = 3
	lv := newLayerValues()
	spans := tr.Spans()
	var warmRoot int64
	for _, s := range spans {
		if s.Name == "report.warm" {
			warmRoot = s.ID
		}
	}
	for _, s := range spans {
		switch {
		case s.Name == "experiments.city_cold":
			lv.add("experiments.city_cold_s", s.Dur().Seconds())
		case s.Name == "experiments.city_warm":
			lv.add("experiments.city_warm_s", s.Dur().Seconds())
		case s.Parent != warmRoot:
		case s.Name == "core.fit":
			lv.add("core.fit_s", s.Dur().Seconds())
		case s.Name == "experiments.tables":
			lv.set("experiments.tables_s", s.Dur().Seconds())
		case s.Name == "experiments.figures":
			lv.set("experiments.figures_s", s.Dur().Seconds())
		}
	}
	lv.set("ledger.tracing_overhead", (traced-untraced)/untraced)
	lv.notes = append(lv.notes, fmt.Sprintf("in-process cold pass %.3f s; warm pass untraced %.3f s, traced %.3f s", coldS, untraced, traced))
	lv.runtime(rt)
	if err := lv.probeGenerators(e.size.reportScale, seed); err != nil {
		return nil, err
	}
	if err := finishTraced(e, tr, res, lv); err != nil {
		return nil, err
	}
	return res, nil
}

// runTables calls, serially, every Suite table method `speedctx all`
// renders.
func runTables(s *experiments.Suite) error {
	calls := []func() error{
		func() error { _, err := s.Table1(); return err },
		func() error { _, err := s.Table2(); return err },
		func() error { _, err := s.Table3(); return err },
		func() error { _, err := s.Table4(); return err },
		func() error { _, err := s.Tables567(); return err },
		func() error { _, err := s.MLabAssociationStats("A"); return err },
		func() error { _, err := s.AblationGMMvsKMeans(); return err },
		func() error { _, err := s.AblationUploadFirst(); return err },
		func() error { _, err := s.AblationBandwidthRule(); return err },
		func() error { experiments.TCPModelValidation(); return nil },
		func() error { experiments.VendorGapSweep(); return nil },
		func() error { experiments.RecommendationBBR(); return nil },
		func() error { _, err := s.ChallengeTable("A"); return err },
		func() error { _, err := s.VendorSignificance(); return err },
		func() error { _, err := s.AggregationLoss(); return err },
		func() error { _, err := s.BottleneckCensus("A", 0); return err },
		func() error { experiments.RobustnessSweep(2021, s.Parallelism, s.BSTConfig()); return nil },
	}
	for _, c := range calls {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// runFigures calls, serially, every Suite figure method `speedctx all`
// renders.
func runFigures(s *experiments.Suite) error {
	calls := []func() error{
		func() error { _, err := s.Figure1(); return err },
		func() error { _, err := s.Figure2(); return err },
		func() error { _, err := s.Figure4(); return err },
		func() error { _, err := s.Figure5(); return err },
		func() error { _, err := s.Figure6(); return err },
		func() error { _, err := s.Figure7(); return err },
		func() error { _, err := s.Figure8(); return err },
		func() error { _, err := s.Figure9("a"); return err },
		func() error { _, err := s.Figure9("b"); return err },
		func() error { _, err := s.Figure9("c"); return err },
		func() error { _, err := s.Figure9("d"); return err },
		func() error { _, err := s.Figure10(); return err },
		func() error { _, err := s.Figure11(); return err },
		func() error { _, err := s.Figure12(1); return err },
		func() error { _, err := s.Figure12(2); return err },
		func() error { _, err := s.Figure13(); return err },
		func() error { _, err := s.Figure14(); return err },
		func() error { _, err := s.Figure15(); return err },
		func() error { _, err := s.Figures161718(); return err },
		func() error { _, err := s.JointDensity("A"); return err },
	}
	for _, c := range calls {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

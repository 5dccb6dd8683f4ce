package main

import (
	"fmt"
	"math/rand"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/ingest"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

// The serving models are speedtestd's own startup fits at its default
// -ingest-scale and -ingest-seed, which the benchmark leaves unset; it fits
// the same models in-process as the oracle's reference classifiers.
const (
	modelScale = 0.02
	modelSeed  = 2021
	// poolRows is how many Ookla tests per city the row generator draws
	// its <down, up, latency> triples from.
	poolRows = 4000
	// batchRows is the rows per POST /v1/ingest/batch request.
	batchRows = 64
)

// models is one set of per-city serving models plus the pipeline sketch
// specs that go with them.
type models struct {
	cities []string
	byCity map[string]*ingest.CityModel
	specs  map[string]ingest.CitySketchSpec
	fitCfg core.Config
}

// loadModels fits the serving model of each city exactly as speedtestd
// does at startup, spanning the dataset build and the BST fit apart.
func loadModels(cities []string, tr *Tracer, parent int64) (*models, error) {
	s := experiments.NewSuite(modelScale, modelSeed)
	s.FastFit = true
	m := &models{cities: cities, byCity: map[string]*ingest.CityModel{}, specs: map[string]ingest.CitySketchSpec{}, fitCfg: s.BSTConfig()}
	for _, id := range cities {
		if err := tr.Time("experiments.city", parent, func() error {
			_, err := s.City(id)
			return err
		}); err != nil {
			return nil, err
		}
		var (
			cl   *core.Classifier
			base *core.TierSketches
			spec core.SketchSpec
		)
		if err := tr.Time("core.fit", parent, func() error {
			var err error
			cl, base, spec, err = s.CityServingModel(id)
			return err
		}); err != nil {
			return nil, fmt.Errorf("city %s model: %w", id, err)
		}
		m.byCity[id] = &ingest.CityModel{Classifier: cl, Base: base}
		m.specs[id] = ingest.CitySketchSpec{Spec: spec, Tiers: len(base.Downloads)}
	}
	return m, nil
}

// classify stamps row with its city model's verdict, as the server does.
func (m *models) classify(row *dataset.IngestRow) {
	a := m.byCity[row.City].Classifier.ClassifyOne(row.DownloadMbps, row.UploadMbps)
	row.UploadTier, row.Tier, row.Confidence = a.UploadTier, a.Tier, a.Confidence
}

// rowGen makes the seeded ingest rows: each city's <down, up, latency>
// triples come from its own generated Ookla tests, so the load carries
// the paper's tier structure, and user ids cover [0, users) per city.
type rowGen struct {
	cities []string
	pools  map[string][]dataset.OoklaRecord
	rng    *rand.Rand
	users  int
	testID int
}

func newRowGen(seed int64, cities []string, users int) (*rowGen, error) {
	g := &rowGen{cities: cities, pools: map[string][]dataset.OoklaRecord{}, rng: rand.New(rand.NewSource(seed)), users: users}
	for i, id := range cities {
		cat, ok := plans.ByCity(id)
		if !ok {
			return nil, fmt.Errorf("unknown city %q", id)
		}
		g.pools[id] = dataset.GenerateOoklaPar(cat, poolRows, seed*7919+int64(i), 0)
	}
	return g, nil
}

var epoch = time.Unix(1640995200, 0).UTC()

// row returns the next row for city and user.
func (g *rowGen) row(city string, user int) dataset.IngestRow {
	pool := g.pools[city]
	rec := pool[g.rng.Intn(len(pool))]
	g.testID++
	return dataset.IngestRow{
		TestID:       g.testID,
		UserID:       user,
		City:         city,
		ISP:          "ISP-" + city,
		Timestamp:    epoch.Add(time.Duration(g.testID) * time.Second),
		DownloadMbps: rec.DownloadMbps,
		UploadMbps:   rec.UploadMbps,
		LatencyMs:    rec.LatencyMs,
	}
}

// covering returns n rows per city whose users cover [0, users) once
// before any repeats, in seeded order, interleaving the cities.
func (g *rowGen) covering(n int) []dataset.IngestRow {
	perm := g.rng.Perm(g.users)
	out := make([]dataset.IngestRow, 0, n*len(g.cities))
	for j := 0; j < n; j++ {
		user := perm[j%len(perm)]
		if j >= len(perm) {
			user = g.rng.Intn(g.users)
		}
		for _, city := range g.cities {
			out = append(out, g.row(city, user))
		}
	}
	return out
}

// random returns n rows with seeded cities and users.
func (g *rowGen) random(n int) []dataset.IngestRow {
	out := make([]dataset.IngestRow, n)
	for i := range out {
		out[i] = g.row(g.cities[g.rng.Intn(len(g.cities))], g.rng.Intn(g.users))
	}
	return out
}

// batchBodies renders rows as NDJSON request bodies of batchRows rows.
func batchBodies(rows []dataset.IngestRow) [][]byte {
	var out [][]byte
	for at := 0; at < len(rows); at += batchRows {
		var buf []byte
		for j := at; j < at+batchRows && j < len(rows); j++ {
			buf = ingest.AppendSubmission(buf, &rows[j])
			buf = append(buf, '\n')
		}
		out = append(out, buf)
	}
	return out
}

// prepareSegments builds the segment directory a daemon holds after a
// restart that followed compaction: the classified base rows compacted
// into one quadkey-clustered v3 snapshot, then freshSegs unclustered v2
// segments of freshRows rows each sealed on top.
func prepareSegments(dir string, m *models, base, fresh []dataset.IngestRow, freshSegRows int) error {
	seal := func(rows []dataset.IngestRow, segRows int) error {
		p, err := ingest.NewPipeline(ingest.PipelineConfig{Dir: dir, BatchRows: segRows, MaxBatchAge: -1, Sketches: m.specs})
		if err != nil {
			return err
		}
		for i := range rows {
			if err := p.Submit(rows[i]); err != nil {
				p.Close()
				return err
			}
		}
		return p.Close()
	}
	if err := seal(base, 0); err != nil {
		return err
	}
	if _, err := ingest.CompactWith(dir, ingest.CompactOptions{ClusterZoom: 16}); err != nil {
		return err
	}
	if len(fresh) == 0 {
		return nil
	}
	return seal(fresh, freshSegRows)
}

// classifyAll stamps every row with its model verdict.
func (m *models) classifyAll(rows []dataset.IngestRow) {
	for i := range rows {
		m.classify(&rows[i])
	}
}

// tileRows is the tile fold's columnar view of rows: the six columns the
// server's tile selection reads.
func tileRows(rows []dataset.IngestRow) *tilequery.Rows {
	r := &tilequery.Rows{
		UserID:   make([]int, len(rows)),
		City:     make([]string, len(rows)),
		Download: make([]float64, len(rows)),
		Upload:   make([]float64, len(rows)),
		Latency:  make([]float64, len(rows)),
		Tier:     make([]int, len(rows)),
	}
	for i, row := range rows {
		r.UserID[i], r.City[i] = row.UserID, row.City
		r.Download[i], r.Upload[i], r.Latency[i] = row.DownloadMbps, row.UploadMbps, row.LatencyMs
		r.Tier[i] = row.Tier
	}
	return r
}

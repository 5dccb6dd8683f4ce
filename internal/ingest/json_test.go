package ingest

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
)

func TestParseSubmissionRoundTrip(t *testing.T) {
	rows := testRows(200, 7)
	for i := range rows {
		in := rows[i]
		in.UploadTier, in.Tier, in.Confidence = 0, 0, 0 // not on the wire
		wire := AppendSubmission(nil, &in)
		var got dataset.IngestRow
		if err := parseSubmission(wire, &got); err != nil {
			t.Fatalf("row %d: %v\nwire: %s", i, err, wire)
		}
		if !got.Timestamp.Equal(in.Timestamp) {
			t.Fatalf("row %d timestamp = %v, want %v", i, got.Timestamp, in.Timestamp)
		}
		got.Timestamp, in.Timestamp = time.Time{}, time.Time{}
		if got != in {
			t.Fatalf("row %d = %+v, want %+v", i, got, in)
		}
	}
}

// wireMirror is the wire schema as encoding/json sees it: the reference
// the hand-rolled scanner is cross-checked against.
type wireMirror struct {
	TestID       int     `json:"test_id"`
	UserID       int     `json:"user_id"`
	City         string  `json:"city"`
	ISP          string  `json:"isp"`
	Timestamp    int64   `json:"timestamp"`
	DownloadMbps float64 `json:"download_mbps"`
	UploadMbps   float64 `json:"upload_mbps"`
	LatencyMs    float64 `json:"latency_ms"`
}

// matchesMirror reports whether the scanner's row carries exactly the
// eight values encoding/json decoded, floats compared by bit pattern.
func matchesMirror(got dataset.IngestRow, ref wireMirror) bool {
	return got.TestID == ref.TestID && got.UserID == ref.UserID &&
		got.City == ref.City && got.ISP == ref.ISP &&
		got.Timestamp.UnixNano() == ref.Timestamp &&
		math.Float64bits(got.DownloadMbps) == math.Float64bits(ref.DownloadMbps) &&
		math.Float64bits(got.UploadMbps) == math.Float64bits(ref.UploadMbps) &&
		math.Float64bits(got.LatencyMs) == math.Float64bits(ref.LatencyMs)
}

// TestParseSubmissionAgainstEncodingJSON cross-checks the hand-rolled
// scanner against the stdlib on the same wire bytes, including escapes,
// whitespace, float forms, unknown keys and values at the wire bounds.
func TestParseSubmissionAgainstEncodingJSON(t *testing.T) {
	inputs := []string{
		`{"test_id":1,"user_id":2,"city":"A","isp":"ISP-A","timestamp":1609459200000000000,"download_mbps":412.5,"upload_mbps":18.2,"latency_ms":11.3}`,
		"{ \"test_id\" : 7 ,\n\t\"user_id\": 0, \"city\":\"B\", \"isp\":\"quoted \\\"isp\\\"\",\n\"timestamp\": 5, \"download_mbps\": 1e2, \"upload_mbps\": 0.5e-1, \"latency_ms\": -0.0 }",
		`{"extra":"ignored","test_id":3,"user_id":4,"city":"Cé","isp":"a\/b","timestamp":-1,"download_mbps":100,"upload_mbps":10,"latency_ms":1,"also":null,"flag":true}`,
		`{"test_id":5,"user_id":6,"city":"😀","isp":"x","timestamp":0,"download_mbps":2.5,"upload_mbps":1.25,"latency_ms":3}`,
		`{"test_id":8,"user_id":9,"city":"A","isp":"x","timestamp":0,"download_mbps":1e5,"upload_mbps":100000,"latency_ms":6e5}`,
	}
	for i, in := range inputs {
		var got dataset.IngestRow
		if err := parseSubmission([]byte(in), &got); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		var ref wireMirror
		if err := json.Unmarshal([]byte(in), &ref); err != nil {
			t.Fatalf("input %d: stdlib: %v", i, err)
		}
		if !matchesMirror(got, ref) {
			t.Fatalf("input %d: scanner disagrees with stdlib:\n got %+v\n ref %+v", i, got, ref)
		}
	}
}

// validBody is one accepted submission; the reject cases below edit it.
const validBody = `{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`

// wireKeys are the eight required keys.
var wireKeys = []string{"test_id", "user_id", "city", "isp", "timestamp", "download_mbps", "upload_mbps", "latency_ms"}

// withField returns validBody with key's value replaced by v.
func withField(key, v string) string {
	i := strings.Index(validBody, `"`+key+`":`) + len(key) + 3
	j := i + strings.IndexAny(validBody[i:], ",}")
	return validBody[:i] + v + validBody[j:]
}

func TestParseSubmissionRejects(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`[1,2]`,
		`{"test_id":1}`,
		`{"test_id":1,"user_id":2,"city":"","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":"one","user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}trailing`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1`,
		`{"nested":{"a":1},"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1e999,"upload_mbps":1,"latency_ms":1}`,
		// A repeated key must not stand in for a missing one.
		strings.Replace(validBody, `"user_id"`, `"test_id"`, 1),
		strings.Replace(validBody, "}", `,"test_id":1}`, 1),
		// Numbers outside the JSON grammar, and raw control characters.
		withField("test_id", "+1"),
		withField("user_id", "02"),
		withField("download_mbps", ".5"),
		withField("upload_mbps", "1."),
		withField("isp", "\"a\tb\""),
		withField("city", "\"\xff\""),
		// Out-of-range measurements.
		withField("download_mbps", "-1e300"),
		withField("download_mbps", "-1"),
		withField("download_mbps", "100000.001"),
		withField("upload_mbps", "-0.5"),
		withField("upload_mbps", "100000.001"),
		withField("latency_ms", "-1e-9"),
		withField("latency_ms", "600000.001"),
		withField("latency_ms", "1e300"),
	}
	// Each required key missing on its own.
	for _, key := range wireKeys {
		bad = append(bad, strings.Replace(validBody, `"`+key+`"`, `"_`+key+`"`, 1))
	}
	for i, in := range bad {
		var row dataset.IngestRow
		if err := parseSubmission([]byte(in), &row); err == nil {
			t.Errorf("input %d accepted: %s", i, in)
		}
	}
}

// TestParseSubmissionFloatBits checks shortest-form float rendering round
// trips bit-exactly through AppendSubmission + parseSubmission — the load
// generator's request bytes must reconstruct the exact sample values, or
// online tiers could diverge from batch reruns. Values beyond the wire
// bounds round-trip through the float scanner and are then refused.
func TestParseSubmissionFloatBits(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3, 941.6785229364581, 5e-324, maxDownloadMbps, math.MaxFloat64}
	for _, v := range vals {
		in := dataset.IngestRow{City: "A", ISP: "x", DownloadMbps: v, UploadMbps: v, LatencyMs: v,
			Timestamp: time.Unix(0, 42)}
		var got dataset.IngestRow
		err := parseSubmission(AppendSubmission(nil, &in), &got)
		if v > maxDownloadMbps {
			if err == nil {
				t.Errorf("%g: accepted beyond the wire bound", v)
			}
			got.DownloadMbps, _, err = scanFloat(strconv.AppendFloat(nil, v, 'g', -1, 64), 0)
		}
		if err != nil {
			t.Fatalf("%g: %v", v, err)
		}
		if math.Float64bits(got.DownloadMbps) != math.Float64bits(v) {
			t.Errorf("%g: bits changed (%x -> %x)", v, math.Float64bits(v), math.Float64bits(got.DownloadMbps))
		}
	}
}

// FuzzParseSubmission is a differential fuzz against encoding/json:
// whatever the hand-rolled scanner accepts must be valid JSON that the
// stdlib decodes to the same eight values.
func FuzzParseSubmission(f *testing.F) {
	f.Add([]byte(validBody))
	f.Add([]byte(strings.Replace(validBody, `"user_id"`, `"test_id"`, 1)))
	f.Add([]byte(withField("download_mbps", "-1e300")))
	f.Add([]byte(withField("latency_ms", "600000")))
	f.Add([]byte(`{"x":"y","test_id":5,"user_id":6,"city":"\u00e9\ud83d\ude00","isp":"a\/b","timestamp":-1,"download_mbps":2.5e0,"upload_mbps":0.0,"latency_ms":-0,"n":null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got dataset.IngestRow
		if parseSubmission(b, &got) != nil {
			return
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", err, b)
		}
		// encoding/json matches keys case-insensitively, the scanner
		// exactly: an unknown key that folds onto a schema key is skipped
		// by one and decoded by the other, so the two cannot be compared.
		for k := range keys {
			for _, key := range wireKeys {
				if k != key && strings.EqualFold(k, key) {
					return
				}
			}
		}
		var ref wireMirror
		if err := json.Unmarshal(b, &ref); err != nil {
			t.Fatalf("scanner accepted what encoding/json cannot decode (%v): %q", err, b)
		}
		if !matchesMirror(got, ref) {
			t.Fatalf("scanner disagrees with encoding/json on %q:\n got %+v\n ref %+v", b, got, ref)
		}
	})
}

func TestAppendAckShape(t *testing.T) {
	got := string(appendAck(nil, core.Assignment{UploadTier: 2, Tier: 3, Confidence: 0.25}))
	want := `{"tier":3,"upload_tier":2,"confidence":0.25}`
	if got != want {
		t.Fatalf("ack = %s, want %s", got, want)
	}
	if !strings.Contains(string(appendError(nil, errMalformed)), `"error":`) {
		t.Fatal("error ack missing error key")
	}
}

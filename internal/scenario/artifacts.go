package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pulsedos/internal/experiments"
)

// Artifact names a run can produce. The set is part of the cache contract:
// runcache entries written under one engine version hold exactly the files
// the document's measurement spec selects (result.json always; rate.csv when
// a rate series is requested; the tap artifacts when the measure block names
// them), and pdos-serve's smoke test (TestServeSmoke) compares them file by
// file against a direct recompute.
// Documents without a measure block produce the same two-file set — and the
// same bytes — they did before the measure extension, so pre-extension cache
// entries stay valid.
const (
	// ArtifactResult is the deterministic JSON summary of a run.
	ArtifactResult = "result.json"
	// ArtifactRate is the binned bottleneck traffic series, when measured.
	ArtifactRate = "rate.csv"
	// ArtifactCwnd is the "cwnd" tap's congestion-window trace.
	ArtifactCwnd = "cwnd.csv"
	// ArtifactSRTT is the "srtt" tap's per-flow smoothed-RTT vector.
	ArtifactSRTT = "srtt.json"
	// ArtifactGoodput is the "goodput" tap's per-flow delivered bytes.
	ArtifactGoodput = "goodput.csv"
	// ArtifactQueue is the "queue" tap's bottleneck queue-depth samples.
	ArtifactQueue = "queue.csv"
	// ArtifactSync is the "sync" tap's PAA frame vector and period estimates.
	ArtifactSync = "sync.json"
	// ArtifactMice is the mice workload's flow-completion-time summary.
	ArtifactMice = "mice.json"
)

// RunSummary is the JSON shape of result.json. Field order is fixed by this
// declaration and map keys are sorted by encoding/json, so encoding the same
// RunResult always yields byte-identical artifacts — the property the
// content-addressed cache stores under.
type RunSummary struct {
	Name          string         `json:"name,omitempty"`
	EngineVersion string         `json:"engineVersion"`
	Delivered     uint64         `json:"delivered"`
	PerFlow       map[int]uint64 `json:"perFlow,omitempty"`

	DropsTotal   uint64            `json:"dropsTotal"`
	DropsByClass map[string]uint64 `json:"dropsByClass,omitempty"`

	Timeouts       uint64 `json:"timeouts"`
	FastRecoveries uint64 `json:"fastRecoveries"`
	Retransmits    uint64 `json:"retransmits"`
	SegmentsSent   uint64 `json:"segmentsSent"`

	AttackPulses  int    `json:"attackPulses,omitempty"`
	AttackPackets uint64 `json:"attackPackets,omitempty"`
	AttackBytes   uint64 `json:"attackBytes,omitempty"`

	JitterMeanSec *float64 `json:"jitterMeanSec,omitempty"`
	RateBinSec    float64  `json:"rateBinSec,omitempty"`
	RateBins      int      `json:"rateBins,omitempty"`
}

// SyncArtifact is the JSON shape of sync.json: the §2.3 post-processing of
// the incoming-traffic series (zero-mean PAA compression, pinnacle count,
// autocorrelation period), computed by experiments.AnalyzeSync — the same
// function behind experiments.SyncSnapshot.
type SyncArtifact struct {
	Frames        []float64 `json:"frames"`
	Peaks         int       `json:"peaks"`
	PeakPeriodSec float64   `json:"peakPeriodSec"`
	AutoPeriodSec float64   `json:"autoPeriodSec"`
}

// MiceArtifact is the JSON shape of mice.json.
type MiceArtifact struct {
	Started       int       `json:"started"`
	Completed     int       `json:"completed"`
	FCTs          []float64 `json:"fcts"`
	MeanFCT       float64   `json:"meanFct"`
	MedianFCT     float64   `json:"medianFct"`
	P95FCT        float64   `json:"p95Fct"`
	ElephantBytes uint64    `json:"elephantBytes"`
}

// EncodeResult renders a run's outcome as the cacheable artifact set:
// result.json always, rate.csv when the scenario collected a rate series,
// plus one artifact per measure tap. The encoding is deterministic — same
// result, same bytes — and floats are encoded at full round-trip precision
// so a figure assembled from artifacts equals one assembled in memory.
func EncodeResult(cfg Config, res *experiments.RunResult) (map[string][]byte, error) {
	sum := RunSummary{
		Name:           cfg.Name,
		EngineVersion:  experiments.EngineVersion,
		Delivered:      res.Delivered,
		PerFlow:        res.PerFlow,
		Timeouts:       res.Timeouts,
		FastRecoveries: res.FastRecoveries,
		Retransmits:    res.Retransmits,
		SegmentsSent:   res.SegmentsSent,
		AttackPulses:   res.AttackStats.PulsesSent,
		AttackPackets:  res.AttackStats.PacketsSent,
		AttackBytes:    res.AttackStats.BytesSent,
	}
	if res.Drops != nil {
		sum.DropsTotal = res.Drops.Total
		if len(res.Drops.ByClass) > 0 {
			sum.DropsByClass = make(map[string]uint64, len(res.Drops.ByClass))
			for c, n := range res.Drops.ByClass { //pdos:nondeterministic-ok — keys land in a JSON map, which encoding/json sorts
				sum.DropsByClass[c.String()] = n
			}
		}
	}
	if res.Jitter != nil {
		mean := res.Jitter.Mean()
		sum.JitterMeanSec = &mean
	}
	if res.Rate != nil {
		sum.RateBinSec = res.Rate.BinWidth().Seconds()
		sum.RateBins = len(res.Rate.Bytes())
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode result: %w", err)
	}
	files := map[string][]byte{ArtifactResult: append(raw, '\n')}
	if res.Rate != nil {
		files[ArtifactRate] = encodeRateCSV(res)
	}
	if err := encodeTaps(cfg, res, files); err != nil {
		return nil, err
	}
	if res.Mice != nil {
		buf, err := marshalJSONLine(MiceArtifact{
			Started:       res.Mice.Started,
			Completed:     res.Mice.Completed,
			FCTs:          res.Mice.FCTs,
			MeanFCT:       res.Mice.MeanFCT,
			MedianFCT:     res.Mice.MedianFCT,
			P95FCT:        res.Mice.P95FCT,
			ElephantBytes: res.Mice.ElephantBytes,
		})
		if err != nil {
			return nil, err
		}
		files[ArtifactMice] = buf
	}
	return files, nil
}

// encodeTaps adds one artifact per requested measure tap.
func encodeTaps(cfg Config, res *experiments.RunResult, files map[string][]byte) error {
	m := cfg.Measure
	if m == nil {
		return nil
	}
	if m.HasTap("srtt") {
		buf, err := marshalJSONLine(res.SRTTs)
		if err != nil {
			return err
		}
		files[ArtifactSRTT] = buf
	}
	if m.HasTap("cwnd") {
		var b strings.Builder
		b.WriteString("timeSec,cwnd\n")
		for _, s := range res.Cwnd {
			b.WriteString(strconv.FormatFloat(s.TimeSec, 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.Cwnd, 'g', -1, 64))
			b.WriteByte('\n')
		}
		files[ArtifactCwnd] = []byte(b.String())
	}
	if m.HasTap("goodput") {
		ids := make([]int, 0, len(res.PerFlow))
		for id := range res.PerFlow { //pdos:nondeterministic-ok — collected then sorted
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var b strings.Builder
		b.WriteString("flow,bytes\n")
		for _, id := range ids {
			b.WriteString(strconv.Itoa(id))
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(res.PerFlow[id], 10))
			b.WriteByte('\n')
		}
		files[ArtifactGoodput] = []byte(b.String())
	}
	if m.HasTap("queue") {
		var b strings.Builder
		b.WriteString("timeSec,depth\n")
		for _, s := range res.Queue {
			b.WriteString(strconv.FormatFloat(s.TimeSec, 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(s.Depth))
			b.WriteByte('\n')
		}
		files[ArtifactQueue] = []byte(b.String())
	}
	if m.HasTap("sync") && res.Rate != nil {
		art, err := encodeSync(cfg, res)
		if err != nil {
			return err
		}
		buf, err := marshalJSONLine(art)
		if err != nil {
			return err
		}
		files[ArtifactSync] = buf
	}
	return nil
}

// encodeSync post-processes the rate series with experiments.AnalyzeSync
// over the document's measurement window and the series' bin width.
func encodeSync(cfg Config, res *experiments.RunResult) (*SyncArtifact, error) {
	sync, err := experiments.AnalyzeSync(res.Rate.Bytes(), cfg.Measure.syncFrames(cfg.MeasureSec),
		cfg.MeasureSec, res.Rate.BinWidth().Seconds())
	if err != nil {
		return nil, err
	}
	return &SyncArtifact{
		Frames:        sync.Frames,
		Peaks:         sync.Peaks,
		PeakPeriodSec: sync.PeakPeriodSec,
		AutoPeriodSec: sync.AutoPeriodSec,
	}, nil
}

// marshalJSONLine encodes v compactly with a trailing newline. JSON float64
// encoding is exact (shortest round-trip form), so decoding an artifact
// recovers bit-identical values.
func marshalJSONLine(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode artifact: %w", err)
	}
	return append(raw, '\n'), nil
}

// encodeRateCSV renders the binned traffic series with full float precision,
// one row per bin: the bin's start offset (seconds past the measurement
// start) and the bytes that arrived in it.
func encodeRateCSV(res *experiments.RunResult) []byte {
	var b strings.Builder
	b.WriteString("binStartSec,bytes\n")
	width := res.Rate.BinWidth().Seconds()
	for i, bytes := range res.Rate.Bytes() {
		b.WriteString(strconv.FormatFloat(float64(i)*width, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(bytes, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ComputeArtifacts executes the scenario under ctx and encodes its artifacts.
// This is the compute function the figure pipeline and pdos-serve memoize
// through runcache, exported so benchmarks can recompute outside the cache
// and assert byte-identity against cached entries.
func ComputeArtifacts(ctx context.Context, cfg Config, progress func(frac float64)) (map[string][]byte, error) {
	res, err := cfg.RunContext(ctx, progress)
	if err != nil {
		return nil, err
	}
	return EncodeResult(cfg, res)
}

package argo

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"argo/internal/search"
)

// Phases of a run, as recorded in EpochRecord and Event.
const (
	PhaseSearch = "search" // the auto-tuner is learning
	PhaseReuse  = "reuse"  // the best-found configuration is reused
)

// EpochRecord is one entry of a Report's history: a single training epoch
// with the configuration it ran under and its measured duration. A
// non-finite Seconds marks a crashed measurement; it serialises as
// {"crashed": true} (JSON has no ±Inf/NaN) and deserialises back to +Inf.
type EpochRecord struct {
	Epoch   int     `json:"epoch"`
	Config  Config  `json:"config"`
	Seconds float64 `json:"seconds"`
	// Phase is PhaseSearch while the auto-tuner is learning, then
	// PhaseReuse.
	Phase string `json:"phase"`
}

// wireEpochRecord is EpochRecord's JSON shape, with crashed measurements
// flagged instead of encoded as an unsupported non-finite float.
type wireEpochRecord struct {
	Epoch   int     `json:"epoch"`
	Config  Config  `json:"config"`
	Seconds float64 `json:"seconds"`
	Crashed bool    `json:"crashed,omitempty"`
	Phase   string  `json:"phase"`
}

// MarshalJSON implements json.Marshaler.
func (e EpochRecord) MarshalJSON() ([]byte, error) {
	w := wireEpochRecord{Epoch: e.Epoch, Config: e.Config, Seconds: e.Seconds, Phase: e.Phase}
	if !search.IsFinite(e.Seconds) {
		w.Seconds, w.Crashed = 0, true
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *EpochRecord) UnmarshalJSON(b []byte) error {
	var w wireEpochRecord
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = EpochRecord{Epoch: w.Epoch, Config: w.Config, Seconds: w.Seconds, Phase: w.Phase}
	if w.Crashed {
		e.Seconds = math.Inf(1)
	}
	return nil
}

// Event is a per-epoch progress notification streamed to the callback
// installed with WithEvents, carrying the epoch just measured and the
// incumbent so far.
type Event struct {
	// Strategy is the name of the tuning strategy driving the run.
	Strategy string `json:"strategy"`
	// Epoch is the zero-based index of the epoch just completed.
	Epoch int `json:"epoch"`
	// Phase is PhaseSearch or PhaseReuse.
	Phase string `json:"phase"`
	// Config ran this epoch, taking Seconds.
	Config  Config  `json:"config"`
	Seconds float64 `json:"seconds"`
	// Best is the incumbent configuration after this epoch and
	// BestSeconds its epoch time (zero until a finite search observation
	// exists).
	Best        Config  `json:"best"`
	BestSeconds float64 `json:"best_seconds"`
	// Searched counts search-phase epochs consumed so far, out of the
	// run's online-learning budget.
	Searched int `json:"searched"`
}

// wireEvent is Event's JSON shape; like EpochRecord, a crashed (non-
// finite) measurement is flagged rather than encoded as ±Inf.
type wireEvent struct {
	Strategy    string  `json:"strategy"`
	Epoch       int     `json:"epoch"`
	Phase       string  `json:"phase"`
	Config      Config  `json:"config"`
	Seconds     float64 `json:"seconds"`
	Crashed     bool    `json:"crashed,omitempty"`
	Best        Config  `json:"best"`
	BestSeconds float64 `json:"best_seconds"`
	Searched    int     `json:"searched"`
}

// MarshalJSON implements json.Marshaler, so events can be streamed as
// NDJSON even when an epoch crashes.
func (e Event) MarshalJSON() ([]byte, error) {
	w := wireEvent{
		Strategy: e.Strategy, Epoch: e.Epoch, Phase: e.Phase, Config: e.Config,
		Seconds: e.Seconds, Best: e.Best, BestSeconds: e.BestSeconds, Searched: e.Searched,
	}
	if !search.IsFinite(e.Seconds) {
		w.Seconds, w.Crashed = 0, true
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var w wireEvent
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = Event{
		Strategy: w.Strategy, Epoch: w.Epoch, Phase: w.Phase, Config: w.Config,
		Seconds: w.Seconds, Best: w.Best, BestSeconds: w.BestSeconds, Searched: w.Searched,
	}
	if w.Crashed {
		e.Seconds = math.Inf(1)
	}
	return nil
}

// EventFunc receives per-epoch Events during Runtime.Run. It is called
// synchronously from the run loop; slow handlers slow training down.
type EventFunc func(Event)

// Report summarises a Run. It round-trips through JSON (WriteJSON /
// ReadReport), so a finished run can be persisted and warm-start a later
// one via WithWarmStart.
type Report struct {
	// Strategy is the canonical name of the tuning strategy that drove
	// the run.
	Strategy string `json:"strategy"`
	Best     Config `json:"best"`
	// BestEpochSeconds is the best epoch time observed during the search
	// phase — the run's incumbent. The reuse phase never overwrites
	// it; compare with ReuseEpochSeconds to see post-search drift.
	BestEpochSeconds float64 `json:"best_epoch_seconds"`
	// ReuseEpochSeconds is the mean measured epoch time over the reuse
	// phase (zero when the run ended before reuse).
	ReuseEpochSeconds float64       `json:"reuse_epoch_seconds,omitempty"`
	History           []EpochRecord `json:"history"`
	// SearchEpochs counts epochs spent evaluating tuner proposals.
	SearchEpochs int `json:"search_epochs"`
	// TunerOverhead is the time spent inside the strategy — fitting the
	// surrogate model and maximising the acquisition function (paper
	// §VI-D). Serialised as nanoseconds.
	TunerOverhead time.Duration `json:"tuner_overhead_ns"`
	// TotalSeconds is the end-to-end training time: every epoch at its
	// observed cost.
	TotalSeconds float64 `json:"total_seconds"`
	// Exchange carries the halo-exchange traffic summary of a sharded
	// run (argo-train attaches GNNTrainer.ExchangeStats before writing
	// the report); nil for single-store runs. Peers serialise in
	// deterministic (From, To) order.
	Exchange *ExchangeStats `json:"exchange,omitempty"`
}

// WriteJSON serialises the report, indented, to w.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport deserialises a report previously written with WriteJSON.
func ReadReport(rd io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("argo: decoding report: %w", err)
	}
	return rep, nil
}

// searchHistory returns the search-phase records — the observations a
// warm-started run replays into its strategy.
func (r Report) searchHistory() []EpochRecord {
	var out []EpochRecord
	for _, h := range r.History {
		if h.Phase == PhaseSearch {
			out = append(out, h)
		}
	}
	return out
}

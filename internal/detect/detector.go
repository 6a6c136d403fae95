// Package detect implements the party-side shift-detection pipeline of
// ShiftEx (Algorithm 1 of the paper): each window, a party embeds its local
// data through its current model's penultimate layer, summarizes the
// embedding distribution and label histogram, and computes MMD/JSD against
// the previous window. Only these aggregate statistics — never raw data —
// are transmitted to the aggregator.
package detect

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// PartyStats is the per-window statistics bundle a party transmits to the
// aggregator: {P_t(X), y_t, Δcov, Δlabel} in the paper's notation.
type PartyStats struct {
	PartyID int `json:"partyId"`
	Window  int `json:"window"`
	// MeanEmbedding is the aggregate latent representation P_t(X).
	MeanEmbedding tensor.Vector `json:"meanEmbedding"`
	// EmbeddingSample is a capped subsample of latent vectors used for
	// kernel MMD at the aggregator; it reveals no raw inputs.
	EmbeddingSample []tensor.Vector `json:"embeddingSample"`
	// LabelHist is the normalized label histogram y_t.
	LabelHist stats.Histogram `json:"labelHist"`
	// MMD is Δcov: the covariate discrepancy vs the previous window.
	MMD float64 `json:"mmd"`
	// JSD is Δlabel: the label discrepancy vs the previous window.
	JSD float64 `json:"jsd"`
	// NumSamples is the window's sample count (aggregation weight).
	NumSamples int `json:"numSamples"`
}

// Detector holds one party's rolling detection state across windows.
type Detector struct {
	partyID    int
	numClasses int
	sampleCap  int

	window     int
	prevSample []tensor.Vector
	prevHist   stats.Histogram
	// bw is the cached batch workspace of the embedding pass, rebuilt only
	// when the encoder architecture changes.
	bw *nn.BatchWorkspace
}

// NewDetector builds a detector for one party. sampleCap bounds the number
// of embeddings retained and transmitted per window (the paper's fixed-size
// reference set); 0 means 64.
func NewDetector(partyID, numClasses, sampleCap int) (*Detector, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("detect: need >=2 classes, got %d", numClasses)
	}
	if sampleCap < 0 {
		return nil, fmt.Errorf("detect: negative sample cap %d", sampleCap)
	}
	if sampleCap == 0 {
		sampleCap = 64
	}
	return &Detector{partyID: partyID, numClasses: numClasses, sampleCap: sampleCap}, nil
}

// Window returns the number of windows observed so far.
func (d *Detector) Window() int { return d.window }

// Observe runs Algorithm 1 on the current window's data using the party's
// current model as the encoder, returning the statistics to transmit and
// advancing the detector's previous-window state.
func (d *Detector) Observe(model *nn.MLP, window []dataset.Example, rng *tensor.RNG) (PartyStats, error) {
	if len(window) == 0 {
		return PartyStats{}, errors.New("detect: empty window")
	}
	if model == nil {
		return PartyStats{}, errors.New("detect: nil model")
	}

	// Step 1-2: embed the window, subsample to the cap.
	idx := make([]int, len(window))
	for i := range idx {
		idx[i] = i
	}
	if len(idx) > d.sampleCap {
		idx = rng.Sample(len(window), d.sampleCap)
	}
	if d.bw == nil || !d.bw.Fits(model) {
		d.bw = nn.NewBatchWorkspace(model, len(idx))
	}
	xs := make([]tensor.Vector, len(idx))
	for k, i := range idx {
		xs[k] = window[i].X
	}
	embedded, err := model.EmbedBatchWS(d.bw, xs)
	if err != nil {
		return PartyStats{}, fmt.Errorf("party %d embed: %w", d.partyID, err)
	}
	// The matrix aliases workspace storage; the sample is retained and
	// transmitted, so it owns a copy of every row.
	sample := make([]tensor.Vector, len(idx))
	for k := range sample {
		sample[k] = embedded.Row(k).Clone()
	}
	mean, err := tensor.Mean(sample)
	if err != nil {
		return PartyStats{}, fmt.Errorf("party %d: %w", d.partyID, err)
	}

	// Step 3: normalized label histogram.
	hist := dataset.LabelHistogram(window, d.numClasses)

	// Steps 4-9: discrepancies vs the previous window (0 on the first).
	var mmd, jsd float64
	if d.prevSample != nil {
		mmd, err = stats.MMDAuto(sample, d.prevSample)
		if err != nil {
			return PartyStats{}, fmt.Errorf("party %d mmd: %w", d.partyID, err)
		}
		jsd, err = stats.JSD(hist, d.prevHist)
		if err != nil {
			return PartyStats{}, fmt.Errorf("party %d jsd: %w", d.partyID, err)
		}
	}

	out := PartyStats{
		PartyID:         d.partyID,
		Window:          d.window,
		MeanEmbedding:   mean,
		EmbeddingSample: sample,
		LabelHist:       hist,
		MMD:             mmd,
		JSD:             jsd,
		NumSamples:      len(window),
	}
	d.prevSample = sample
	d.prevHist = hist
	d.window++
	return out, nil
}

// Reset clears the previous-window state (used when a party is reassigned
// to a different expert whose embedding space is not comparable).
func (d *Detector) Reset() {
	d.prevSample = nil
	d.prevHist = nil
}

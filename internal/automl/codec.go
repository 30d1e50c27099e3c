package automl

// Fitted-ensemble codec: the automl half of the durable snapshot
// payload. It composes the internal/ml fitted-model codec with the
// committee metadata that lives at this layer — each member's search
// spec (family + hyperparameters, the provenance feedback explanations
// and warm-start retrains key on), selection weight and holdout score,
// plus the search statistics surfaced by /v1/status. Params maps are
// written with sorted keys, so the same ensemble always encodes to the
// same bytes (the snapshot-fingerprint contract). Like the ml codec,
// this is a raw payload: framing, CRCs and versioning belong to
// internal/modelstore.

import (
	"fmt"
	"math"
	"sort"

	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/wire"
)

// AppendEnsemble encodes the fitted ensemble e onto buf.
func AppendEnsemble(buf []byte, e *Ensemble) ([]byte, error) {
	buf = wire.AppendU32(buf, uint32(len(e.Members)))
	for i := range e.Members {
		m := &e.Members[i]
		buf = wire.AppendI64(buf, int64(m.Spec.Family))
		keys := make([]string, 0, len(m.Spec.Params))
		for k := range m.Spec.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = wire.AppendU32(buf, uint32(len(keys)))
		for _, k := range keys {
			buf = wire.AppendString(buf, k)
			buf = wire.AppendF64(buf, m.Spec.Params[k])
		}
		buf = wire.AppendF64(buf, m.Weight)
		buf = wire.AppendF64(buf, m.ValScore)
		var err error
		if buf, err = ml.AppendModel(buf, m.Model); err != nil {
			return nil, fmt.Errorf("automl: member %d: %w", i, err)
		}
	}
	buf = wire.AppendI64(buf, int64(e.NumClasses))
	buf = wire.AppendF64(buf, e.ValScore)
	buf = wire.AppendI64(buf, int64(e.Evaluated))
	buf = wire.AppendI64(buf, int64(e.Dropped.Panics))
	buf = wire.AppendI64(buf, int64(e.Dropped.Errors))
	buf = wire.AppendI64(buf, int64(e.Dropped.NaNs))
	buf = wire.AppendI64(buf, int64(e.Dropped.Timeouts))
	buf = wire.AppendI64(buf, int64(e.CacheHits))
	buf = wire.AppendI64(buf, int64(e.workers))
	return buf, nil
}

// DecodeEnsemble decodes one ensemble from r, the inverse of
// AppendEnsemble. The decoded ensemble is ready for the zero-alloc
// predict path with no refit: member models carry their flat arrays.
// Snapshot files are outside input, so the committee metadata is
// validated, not trusted: at least one member, every family known, every
// weight finite and positive. Counts are bounded by the remaining input
// before anything is allocated.
func DecodeEnsemble(r *wire.Reader) (*Ensemble, error) {
	e := &Ensemble{}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("automl: decode ensemble: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("automl: decode ensemble: no members")
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("automl: decode ensemble: %d members: %w", n, wire.ErrCorrupt)
	}
	e.Members = make([]Member, n)
	for i := range e.Members {
		m := &e.Members[i]
		fam := r.I64()
		np := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("automl: decode member %d: %w", i, err)
		}
		if fam < 0 || fam >= int64(numFamilies) {
			return nil, fmt.Errorf("automl: decode member %d: unknown family %d", i, fam)
		}
		m.Spec.Family = family(fam)
		if np > r.Remaining() {
			return nil, fmt.Errorf("automl: decode member %d: %d params: %w", i, np, wire.ErrCorrupt)
		}
		if np > 0 {
			m.Spec.Params = make(map[string]float64, np)
			for j := 0; j < np; j++ {
				k := r.String()
				m.Spec.Params[k] = r.F64()
			}
		}
		m.Weight = r.F64()
		m.ValScore = r.F64()
		if !(m.Weight > 0) || math.IsInf(m.Weight, 1) {
			return nil, fmt.Errorf("automl: decode member %d: weight %v is not finite and positive", i, m.Weight)
		}
		model, err := ml.DecodeModel(r)
		if err != nil {
			return nil, fmt.Errorf("automl: decode member %d: %w", i, err)
		}
		m.Model = model
	}
	e.NumClasses = int(r.I64())
	e.ValScore = r.F64()
	e.Evaluated = int(r.I64())
	e.Dropped.Panics = int(r.I64())
	e.Dropped.Errors = int(r.I64())
	e.Dropped.NaNs = int(r.I64())
	e.Dropped.Timeouts = int(r.I64())
	e.CacheHits = int(r.I64())
	e.workers = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("automl: decode ensemble: %w", err)
	}
	return e, nil
}

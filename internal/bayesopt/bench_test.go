package bayesopt

import (
	"testing"

	"argo/internal/search"
)

// BenchmarkTunerRun measures a full 35-probe online-tuning run over the
// 112-core space — the §VI-D overhead claim is that this is negligible
// next to GNN epoch times.
func BenchmarkTunerRun(b *testing.B) {
	sp := search.DefaultSpace(112)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.Run(NewTuner(sp, 35, int64(i)), search.ObjectiveFunc(bowl))
	}
}

func BenchmarkGPFitAndPredict(b *testing.B) {
	sp := search.DefaultSpace(112)
	tu := NewTuner(sp, 45, 1)
	// Pre-load 44 observations, then measure one full Next() (fit + EI
	// argmax over the space).
	for range 44 {
		c, _ := tu.Next()
		tu.Observe(c, bowl(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tu.Next()
	}
}

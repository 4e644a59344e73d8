package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"testing"
)

// pinnedFigures holds the SHA-256 of each simulator experiment's rendered
// output, recorded before the simulator's unused sampler models, its
// NoOverlap switch and its core allocator were deleted. None of them fed
// a figure, so every figure must still render to these bytes. fig6 alone
// was re-recorded when its measured columns moved from a standalone
// batch-split model to one epoch of the real engine per n.
var pinnedFigures = map[string]string{
	"fig1":   "49112a936978cd7eed07906198dc724d11caf07fead2d0ac1bf863712b06a44a",
	"fig2":   "ddf77cdd0f1f69515c07d3d61df88b93fc2f7b87d06982f0b575c0662afa7191",
	"fig6":   "b4330e48dc5780d3b2cd0990f21902b55c246e118f37a49d88c125b0dfeb9591",
	"fig7":   "6480208bd7b534fc0c7e6ddbb72adcfd137f91c5c3fe5a7fe015b92930af81fe",
	"fig8":   "f3df020c091161c8f269abdc2f18b776d49b80ebd43e3e0b09a124e7bbdc62cf",
	"fig12":  "0c6e18c4fb591518c3022cab68a4ff54777258bbd5fad9c5fc106218807789aa",
	"table4": "5d476df45d0cd3149453aa1d0b2655f1534269bceed82dcd09dee473431da2f6",
	"table5": "7ec3d2638b05d0141a507100642eee58bb73d7a8f10ad774376217a5effc23e4",
	"table6": "d40fee4ddbd7b61d7ac11ded4bf41cf77ed73811d4b404d81280f3af7d6b2118",
}

// pinnedEndToEnd holds, for Figs. 10 and 11, the SHA-256 of every row's
// baseline time (as a hex float) and found configuration. Their ARGO
// column adds the tuner's wall-clock overhead, so the rendered tables are
// not byte-stable across runs.
var pinnedEndToEnd = map[string]string{
	"fig10": "01b5cbdbf52d31e6f305a545bb723c88d87504d38090360fa78e405c7266a1b6",
	"fig11": "9c4dd2a3144ebe1f969d1ff1eb63c326de3457ea5f1d88696a1ee1baf5d4335c",
}

func TestFiguresMatchPinnedParent(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates eleven single-goroutine simulator experiments (~8 s, ~70 s under -race)")
	}
	var names []string
	for name := range pinnedFigures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var buf bytes.Buffer
		if err := Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != pinnedFigures[name] {
			t.Errorf("%s renders to sha256 %s, pinned %s (argo-bench -exp %s prints it)", name, got, pinnedFigures[name], name)
		}
	}
	for name, fig := range map[string]func(io.Writer) (EndToEndData, error){"fig10": Fig10, "fig11": Fig11} {
		data, err := fig(io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, r := range data.Rows {
			fmt.Fprintf(h, "%s|%s|%s|%x|%s\n", r.Dataset, r.SamplerModel, r.Platform, r.BaselineSec, r.BestConfig)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinnedEndToEnd[name] {
			t.Errorf("%s rows hash to sha256 %s, pinned %s", name, got, pinnedEndToEnd[name])
		}
	}
}

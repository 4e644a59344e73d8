package platform

import "testing"

func TestSpecsMatchTableII(t *testing.T) {
	if IceLake4S.TotalCores() != 112 || IceLake4S.Sockets != 4 {
		t.Fatalf("Ice Lake: %d cores, %d sockets", IceLake4S.TotalCores(), IceLake4S.Sockets)
	}
	if IceLake4S.PeakBWGBs != 275 || IceLake4S.FreqGHz != 2.9 || IceLake4S.MemGB != 384 {
		t.Fatal("Ice Lake Table II constants wrong")
	}
	if SapphireRapids2S.TotalCores() != 64 || SapphireRapids2S.Sockets != 2 {
		t.Fatalf("SPR: %d cores", SapphireRapids2S.TotalCores())
	}
	if SapphireRapids2S.PeakBWGBs != 563 || SapphireRapids2S.MemGB != 1024 {
		t.Fatal("SPR Table II constants wrong")
	}
}

func TestEffectiveBW(t *testing.T) {
	// One socket: local bandwidth only.
	if bw := IceLake4S.EffectiveBW(1); bw != IceLake4S.SocketBWGBs() {
		t.Fatalf("1-socket BW = %v", bw)
	}
	// Four sockets on Ice Lake: UPI-capped below peak (paper §IX).
	bw4 := IceLake4S.EffectiveBW(4)
	if bw4 >= IceLake4S.PeakBWGBs {
		t.Fatalf("4-socket Ice Lake BW %v should be UPI-capped below peak %v", bw4, IceLake4S.PeakBWGBs)
	}
	// Monotone non-decreasing in sockets used.
	prev := 0.0
	for s := 1; s <= 4; s++ {
		bw := IceLake4S.EffectiveBW(s)
		if bw < prev {
			t.Fatalf("EffectiveBW not monotone at %d sockets", s)
		}
		prev = bw
	}
	// Out-of-range inputs clamp.
	if IceLake4S.EffectiveBW(0) != IceLake4S.EffectiveBW(1) {
		t.Fatal("clamp low failed")
	}
	if IceLake4S.EffectiveBW(9) != IceLake4S.EffectiveBW(4) {
		t.Fatal("clamp high failed")
	}
}

// Package platform encodes the two evaluation machines from the paper's
// Table II and the host's file-mapping primitive. The machines are
// *models*: the reproduction runs on commodity hardware, so the specs
// parameterise the discrete-event simulator in internal/platsim rather
// than describe the host. The real engine binds no cores; its s and t
// are worker-goroutine counts.
package platform

// Spec describes a multi-socket machine (paper Table II, plus the derived
// microarchitectural constants the simulator needs).
type Spec struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	FreqGHz        float64
	LLCMB          float64
	MemGB          int
	// PeakBWGBs is the aggregate DRAM bandwidth across all sockets.
	PeakBWGBs float64
	// UPIGBs is the total cross-socket interconnect bandwidth (Table II
	// context; the simulator folds its effect into NUMAPenalty).
	UPIGBs float64
	// NUMAPenalty scales the bandwidth lost to remote (UPI) accesses:
	// with data interleaved over k sockets, a fraction (k−1)/k of traffic
	// crosses sockets and effective bandwidth becomes
	// socketBW·k / (1 + (k−1)/k · NUMAPenalty). This is the effect that
	// flattens ARGO's scaling past 64 cores on the four-socket machine
	// (paper §IX).
	NUMAPenalty float64
	// PerCoreBWGBs is the DRAM bandwidth one core can sustain on the
	// mixed streaming/irregular access patterns of GNN training.
	PerCoreBWGBs float64
}

// TotalCores returns Sockets × CoresPerSocket.
func (s Spec) TotalCores() int { return s.Sockets * s.CoresPerSocket }

// SocketBWGBs returns one socket's DRAM bandwidth.
func (s Spec) SocketBWGBs() float64 { return s.PeakBWGBs / float64(s.Sockets) }

// EffectiveBW returns the platform bandwidth available to workloads whose
// cores span the given number of sockets: the local bandwidth of those
// sockets, discounted by the NUMA penalty on the remote-access fraction.
// It is monotone in socketsUsed but sub-linear — the §IX UPI bottleneck.
func (s Spec) EffectiveBW(socketsUsed int) float64 {
	if socketsUsed < 1 {
		socketsUsed = 1
	}
	if socketsUsed > s.Sockets {
		socketsUsed = s.Sockets
	}
	bw := s.SocketBWGBs() * float64(socketsUsed)
	remoteFrac := float64(socketsUsed-1) / float64(socketsUsed)
	return bw / (1 + remoteFrac*s.NUMAPenalty)
}

// IceLake4S models the paper's four-socket Intel Xeon 8380H machine.
var IceLake4S = Spec{
	Name:           "Ice Lake 8380H (4S)",
	Sockets:        4,
	CoresPerSocket: 28,
	FreqGHz:        2.9,
	LLCMB:          154,
	MemGB:          384,
	PeakBWGBs:      275,
	UPIGBs:         125,
	NUMAPenalty:    0.8,
	PerCoreBWGBs:   13,
}

// SapphireRapids2S models the paper's two-socket Intel Xeon 6430L machine.
var SapphireRapids2S = Spec{
	Name:           "Sapphire Rapids 6430L (2S)",
	Sockets:        2,
	CoresPerSocket: 32,
	FreqGHz:        2.1,
	LLCMB:          120,
	MemGB:          1024,
	PeakBWGBs:      563,
	UPIGBs:         250,
	NUMAPenalty:    0.35,
	PerCoreBWGBs:   12,
}

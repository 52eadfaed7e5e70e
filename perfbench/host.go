package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"repro/internal/cpufeat"
)

// hostRecord names the hardware and build a measurement came from; a
// figure without it cannot be compared with another.
type hostRecord struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	// SIMD is the vector leg the kernels ran on: "avx512",
	// "avx512-no-vpopcntdq", "avx", "portable" (no usable extension) or
	// "portable-forced" (REPRO_FORCE_PORTABLE set).
	SIMD string `json:"simd"`
}

func currentHost(seed int64) hostRecord {
	return hostRecord{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Seed:       seed,
		SIMD:       simdLeg(),
	}
}

func simdLeg() string {
	switch {
	case cpufeat.ForcedPortable:
		return "portable-forced"
	case cpufeat.AVX512 && cpufeat.AVX512Popcnt:
		return "avx512"
	case cpufeat.AVX512:
		return "avx512-no-vpopcntdq"
	case cpufeat.AVX:
		return "avx"
	}
	return "portable"
}

// cpuModel reads the processor name from /proc/cpuinfo, or reports
// "unknown" where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the provenance recorded with every result: a timing is only
// comparable with another taken on the same shape of machine, and a worker
// count is only meaningful up to the CPUs the run could use.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2KB       int    `json:"l2_kb"`  // per-core L2 as the kernel reports it (0 = unknown)
	LLCKB      int    `json:"llc_kb"` // last-level cache (0 = unknown)
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// probeHost collects the provenance record. Anything the host does not
// expose reads as "unknown" or 0 rather than failing the run.
func probeHost(root string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
	}
	h.L2KB, h.LLCKB = cacheSizes()
	return h
}

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

// cacheSizes reads cpu0's unified/data caches from sysfs and returns the
// level-2 size and the size of the highest level present, in KiB.
func cacheSizes() (l2, llc int) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	top := 0
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		kb := parseKB(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = kb
		}
		if level >= top {
			top, llc = level, kb
		}
	}
	return l2, llc
}

// parseKB parses sysfs cache sizes such as "2048K" or "300M" into KiB.
func parseKB(s string) int {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		s = strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		s, mult = strings.TrimSuffix(s, "M"), 1024
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n * mult
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout exported without its history reads "unknown".
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if head == "" {
			return "unknown"
		}
		return head
	}
	if c := readTrim(filepath.Join(root, ".git", ref)); c != "" {
		return c
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if c, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return c
		}
	}
	return "unknown"
}

package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint says where a result was taken. It goes on every result
// file: a number without its host is not comparable with anything.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	TempFS     string  `json:"temp_fs"`
	Load1      float64 `json:"load1_before"`
	Network    string  `json:"network"`
}

func takeFingerprint(l layout) fingerprint {
	load1, _ := strconv.ParseFloat(firstField("/proc/loadavg", 0), 64)
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(l.root),
		Kernel:     firstField("/proc/sys/kernel/osrelease", 0),
		TempFS:     fsType(l.buildDir()),
		Load1:      load1,
		Network:    "loopback, not a link",
	}
}

// commit is the checkout's HEAD, or "unknown" where the checkout is not a
// git repository (the driver's is not).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstField(path string, i int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if i >= len(f) {
		return "unknown"
	}
	return f[i]
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	os.MkdirAll(dir, 0o755)
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

//go:build linux

package cellprobe

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// thpEligible reports the THPeligible field of the /proc/self/smaps mapping
// that contains addr.
func thpEligible(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x ", &lo, &hi); n == 2 {
			in = lo <= addr && addr < hi
			continue
		}
		if in && strings.HasPrefix(line, "THPeligible:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "THPeligible:"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no THPeligible field for address %#x", addr)
	return ""
}

// TestArenaHugePageAdvice checks that a table above 4 MiB asks for
// transparent huge pages: the mapping holding its row arena's 2 MiB-aligned
// interior must be THP-eligible wherever the kernel's THP mode honours the
// advice ("always" or "madvise").
func TestArenaHugePageAdvice(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge page support: %v", err)
	}
	if !strings.Contains(string(mode), "[always]") && !strings.Contains(string(mode), "[madvise]") {
		t.Skipf("transparent huge pages disabled: %s", strings.TrimSpace(string(mode)))
	}
	const rows, width = 3, 100_000 // 4.8 MB of cells
	tab := New(rows, width)
	tab.Set(0, 0, Cell{Lo: 1})
	if got := tab.HeapCells(); got != rows*width {
		t.Fatalf("HeapCells = %d, want %d", got, rows*width)
	}
	p := uintptr(unsafe.Pointer(&tab.arena[0]))
	interior := (p + hugePage - 1) &^ (hugePage - 1)
	if got := thpEligible(t, interior); got != "1" {
		t.Errorf("row arena mapping THPeligible = %s, want 1", got)
	}
}

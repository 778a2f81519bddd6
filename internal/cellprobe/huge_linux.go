//go:build linux

package cellprobe

import (
	"os"
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page size of x86-64 and of arm64 with
// 4 KiB base pages.
const hugePage = 2 << 20

// interior returns the part of cells whose bytes span whole align-sized,
// align-aligned blocks, as a byte slice (nil when there is none).
func interior(cells []Cell, align uintptr) []byte {
	if len(cells) == 0 {
		return nil
	}
	base := unsafe.Pointer(unsafe.SliceData(cells))
	p := uintptr(base)
	start := (p + align - 1) &^ (align - 1)
	end := (p + uintptr(len(cells))*unsafe.Sizeof(Cell{})) &^ (align - 1)
	if end <= start {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(base, start-p)), end-start)
}

// adviseHuge asks the kernel to back the 2 MiB-aligned interior of the row
// arena with transparent huge pages (madvise MADV_HUGEPAGE). It runs before
// the arena's first write, so the pages fault in huge where the kernel's
// THP mode is "always" or "madvise". Arenas below 2 MiB are left alone; the
// advice is a hint, so its error is ignored.
func adviseHuge(arena []Cell) {
	if b := interior(arena, hugePage); b != nil {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
}

// adviseCold keeps the pages of cold, a range of arena that is never
// written or probed, off huge pages (MADV_NOHUGEPAGE) so that they are never
// faulted in as part of a huge page shared with touched cells. Only arenas
// that adviseHuge advised are split this way, which keeps the process's
// mapping count from growing with every small table built.
func adviseCold(arena, cold []Cell) {
	if interior(arena, hugePage) == nil {
		return
	}
	if b := interior(cold, uintptr(os.Getpagesize())); b != nil {
		_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	}
}

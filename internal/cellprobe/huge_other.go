//go:build !linux

package cellprobe

// adviseHuge and adviseCold are no-ops off Linux: the row arena stays on
// the system's default pages.
func adviseHuge([]Cell) {}

func adviseCold(_, _ []Cell) {}

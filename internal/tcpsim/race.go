//go:build race

package tcpsim

import (
	"runtime"
	"unsafe"
)

// raceReadBlocks tells the race detector that blocks reads the whole blocks
// at the front of data, as one range.
func raceReadBlocks(data []byte) {
	if n := len(data) - len(data)%digestBlock; n > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&data[0]), n)
	}
}

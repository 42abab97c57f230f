//go:build !race

package tcpsim

// raceReadBlocks reports the blocks of data that blocks reads to the race
// detector; without it, it does nothing.
func raceReadBlocks(data []byte) {}

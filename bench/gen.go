package main

// splitmix64 is the one source of randomness: every request stream is a pure
// function of (seed, connection, index), so a seed names its inputs exactly
// and the layer replay can regenerate what a connection sent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is the i-th random word of connection conn under seed.
func draw(seed uint64, conn int, i uint64) uint64 {
	return splitmix64(splitmix64(seed^uint64(conn)<<56) + i)
}

//go:build race

package buildtags

// Declared in both files of the pair: loading the directory must pick one.
func raced() bool { return true }

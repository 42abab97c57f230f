package buildtags

// A GOOS suffix is a build constraint too.
func raced() bool { return false }

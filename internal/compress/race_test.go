//go:build race

package compress

// raceBuild reports whether the race detector instruments this build.
const raceBuild = true

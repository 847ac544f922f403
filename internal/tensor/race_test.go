//go:build race

package tensor

// raceBuild reports whether the race detector instruments this build.
const raceBuild = true

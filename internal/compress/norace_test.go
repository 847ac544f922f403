//go:build !race

package compress

const raceBuild = false

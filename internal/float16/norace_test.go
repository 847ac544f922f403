//go:build !race

package float16

const raceEnabled = false

//go:build race

package float16

// raceEnabled cuts the exhaustive encode sweep down under the race
// detector, where it would take minutes.
const raceEnabled = true

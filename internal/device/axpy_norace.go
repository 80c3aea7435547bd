//go:build !race

package device

// raceAxpy is a no-op outside race builds; see axpy_race.go.
func raceAxpy(x, y []float32) {}

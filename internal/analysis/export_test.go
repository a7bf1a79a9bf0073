package analysis

// IsStop gives the external tests the stop-list lookup.
func IsStop(a *Analyzer, tok string) bool {
	_, stop := a.stop[tok]
	return stop
}

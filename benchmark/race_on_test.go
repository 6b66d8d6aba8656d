//go:build race

package main

// raceEnabled relaxes TestQuick's time budget: the race detector slows
// the eight deployments several-fold.
const raceEnabled = true

// Package sim exercises the wallclock analyzer.
package sim

import (
	"math/rand"
	"os"
	"time"
)

func wallTime() int64 {
	t := time.Now() // want `time\.Now in simulation-visible package`
	return t.UnixNano()
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in simulation-visible package`
}

func globalRand() int {
	return rand.Intn(10) // want `global rand\.Intn in simulation-visible package`
}

func globalFloat() float64 {
	return rand.Float64() // want `global rand\.Float64 in simulation-visible package`
}

func env() string {
	return os.Getenv("HOME") // want `os\.Getenv in simulation-visible package`
}

func lookup() bool {
	_, ok := os.LookupEnv("SHELL") // want `os\.LookupEnv in simulation-visible package`
	return ok
}

// engineVar: no variable name is exempt.
func engineVar() string {
	return os.Getenv("RH_ENGINE") // want `os\.Getenv in simulation-visible package`
}

// seeded: explicit generators are the sanctioned pattern.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// methodsNotGlobal: methods on an explicit generator are not the
// package-level convenience functions.
func methodsNotGlobal(r *rand.Rand) float64 {
	return r.Float64()
}

// allowed: annotated wall-clock use (e.g. progress logging that never
// reaches result bytes) is suppressed.
func allowed() time.Time {
	//rhlint:allow wallclock(progress timestamp, never reaches result bytes)
	return time.Now()
}

package archive

// What the package's external tests (package archive_test, which may import
// internal/query where this package's own tests cannot) need of its internals.

// PoisonScratch sets the poisonScratch switch.
func PoisonScratch(on bool) { poisonScratch.Store(on) }

// TestScans is testScans.
var TestScans = testScans

// Project is project.
var Project = project

// FilterRun is filterRun.
const FilterRun = filterRun

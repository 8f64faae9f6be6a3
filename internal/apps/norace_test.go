//go:build !race

package apps

// raceBuild reports a build under the race detector (see race_test.go).
const raceBuild = false

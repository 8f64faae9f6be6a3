//go:build race

package apps

// raceBuild reports a build under the race detector. Its instrumentation
// allocates on the request path, so TotalAlloc there is not the path's
// own bytes: the byte ceilings are read only without it.
const raceBuild = true

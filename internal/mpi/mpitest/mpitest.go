// Package mpitest is the one place the tests of the communicating kernels
// pick a rank's request mode: the kernels have one schedule and no mode
// argument, so a test that compares a blocking run with a nonblocking one
// runs the same call twice under InMode.
package mpitest

import "repro/internal/mpi"

// InMode runs fn with c's rank in the nonblocking (async) or blocking request
// mode and restores the mode the rank was in.
func InMode(c *mpi.Comm, async bool, fn func()) {
	defer c.SetBlocking(c.SetBlocking(!async))
	fn()
}

// Package core is a deprecated shim. A single board now runs as a
// fixed one-pair farm (see internal/cluster: cluster.Config.Policy), so
// every board is built in one place, Cluster.build. What is left here,
// System and NewPlatformSystem, builds such a farm and hands back its
// pair's kernel and its one engine, for callers that drive a board by
// hand; it goes once they build the farm themselves.
package core

// Package repro is a Go reproduction of "GPU Acceleration in
// Unikernels Using Cricket GPU Virtualization" (SC-W 2023): a Cricket
// GPU-virtualization layer with an ONC RPC (RFC 5531) stack, an RPCL
// code generator, a simulated CUDA runtime and GPU devices, cubin/fat
// binary handling with compression, and cost models for the five
// evaluation platforms (native C/Rust, Linux VM, Unikraft,
// RustyHermit).
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured
// results. cmd/benchharness regenerates every table and figure of the
// paper's evaluation:
//
//	go run ./cmd/benchharness -all -ci
package repro

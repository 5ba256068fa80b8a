package swiftest

import (
	"context"

	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// Profile is a named multi-state RAN scenario: a seeded Markov chain over
// link states (good / fade / handover / sleep / congested), each carrying
// the capacity, RTT, loss and jitter the emulated access link applies while
// the state holds. Leaving the handover state swaps the cell — capacity and
// RTT durably change mid-test. A (profile, seed) pair replays
// byte-identically. See SimulateOptions.Profile and RunCampaign.
type Profile = ranprofile.Profile

// ProfileState is one link state of a Profile.
type ProfileState = ranprofile.State

// Profiles lists the built-in RAN scenario library, sorted by name:
// 4G/5G static and drive scenarios, congested WiFi, elevators, subways,
// rural LTE and more.
func Profiles() []string { return ranprofile.Names() }

// LookupProfile returns a built-in RAN profile by name.
func LookupProfile(name string) (*Profile, error) { return ranprofile.Get(name) }

// ParseProfiles loads a custom profile library from JSON (the same schema
// as the embedded library: {"version": 1, "profiles": [...]}).
func ParseProfiles(data []byte) ([]*Profile, error) { return ranprofile.Parse(data) }

// CampaignConfig parameterises a scenario campaign: the cross product of
// RAN profiles × termination algorithms × fault plans, each cell measured
// under several seeds, fully in virtual time.
type CampaignConfig = exper.CampaignConfig

// CampaignReport is the deterministic outcome of a campaign
// (swiftest-campaign-report/v1): byte-identical across reruns and worker
// counts for a fixed seed.
type CampaignReport = exper.CampaignReport

// CampaignScenario is one aggregated (profile, algorithm, fault plan) cell
// of a campaign report.
type CampaignScenario = exper.ScenarioStats

// NamedFaultPlan pairs a display name with a fault plan applied to the
// emulated access link for every algorithm in a campaign cell. The same
// type names the fault plans of EarlyStopReplayConfig.FaultPlans.
type NamedFaultPlan = paired.NamedFaultPlan

// BuiltinFaultPlans returns the standard campaign fault plans: a
// fault-free control, a mid-test burst-loss episode, and a short access
// blackout.
func BuiltinFaultPlans() []NamedFaultPlan { return paired.BuiltinFaultPlans() }

// RunCampaign sweeps RAN profiles × termination algorithms × fault plans
// and reports per-scenario accuracy (against flooding ground truth on the
// identical link, which every algorithm of a profile and fault plan
// shares), duration, and data cost. The `swiftest campaign` CLI
// subcommand is a thin wrapper over this.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	return exper.RunCampaign(ctx, cfg)
}

package scenario

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/consensus"
)

const (
	// GrayNodes is the gray-failure cluster size; the schedules below
	// are sized for it, with the leader rigged to node 0.
	GrayNodes = 5
	// GrayHorizon is the number of virtual ticks an episode probes.
	GrayHorizon = 300

	// Defended bounds: the hardened cluster may lose at most this much
	// availability while a connected majority exists (one step-down plus
	// one election, with margin), and terms may grow by at most a handful
	// of real elections — never the per-tick inflation of the control.
	grayMaxLongest   = 80
	grayMaxTotal     = 120
	grayMaxTermDelta = 8

	// Control teeth: the undefended run must visibly livelock or wedge —
	// either runaway terms or a substantial unavailability total.
	grayCtlTermDelta = 4
	grayCtlUnavail   = 10
)

// GraySchedule is one named asymmetric fault shape.
type GraySchedule struct {
	Name  string
	Sched chaos.Schedule
}

// GraySchedules returns the asymmetric fault shapes the gray sweep
// covers:
//
//   - one-way: nodes 0-3 stop reaching node 4 (it still sends) — the
//     inbound-isolated node whose escaping campaigns livelock vanilla Raft.
//   - partial: node 0 is pairwise cut from {2,3,4} both ways while node 1
//     bridges — a non-transitive partition that wedges or deposes an
//     undefended leader and exercises CheckQuorum on a defended one.
//   - flap: every directed link flips with p=0.25 per tick for 100 ticks —
//     the flapping-NIC shape; randomized election backoff keeps the
//     defended cluster from synchronized re-election storms.
func GraySchedules() []GraySchedule {
	return []GraySchedule{
		{"one-way", mustParse("4 link-cut 0-3 4\n154 link-heal 0-3 4\n")},
		{"partial", mustParse("4 partial-partition 0|2-4\n154 heal\n")},
		{"flap", mustParse("4 flap 0-4 0-4 0.25\n104 unflap 0-4 0-4\n105 heal\n")},
	}
}

func mustParse(text string) chaos.Schedule {
	sched, err := chaos.Parse(text)
	if err != nil {
		panic(err) // fixed schedule text
	}
	return sched
}

// GrayResult is the outcome of one gray episode.
type GrayResult struct {
	Avail check.AvailReport
	// TermDelta is MaxTerm growth from boot; StepDowns counts
	// CheckQuorum step-downs.
	TermDelta, StepDowns uint64
	// Committed counts probes that committed; CommitRounds sums their
	// replication rounds.
	Committed, CommitRounds int64
}

// GrayEpisode boots a GrayNodes cluster (hardened = PreVote +
// CheckQuorum + randomized election backoff), rigs the leader to node 0,
// replays sched and probes with one commit-confirmed proposal per tick
// for GrayHorizon ticks. check.Availability charges only failures that
// coincide with a connected majority.
func GrayEpisode(hardened bool, sched chaos.Schedule, seed uint64) (GrayResult, error) {
	var c *consensus.Cluster
	if hardened {
		c = consensus.NewHardenedCluster(GrayNodes, seed)
	} else {
		c = consensus.NewCluster(GrayNodes, seed)
	}
	if l := c.RunUntilLeader(400); l < 0 {
		return GrayResult{}, errors.New("no boot leader")
	}
	if !c.TransferLeadership(0, 80) {
		return GrayResult{}, errors.New("could not rig leader to node 0")
	}
	ctl := chaos.New(sched, seed, chaos.Targets{Nodes: GrayNodes, Consensus: c}, nil)
	boot := c.MaxTerm()

	var res GrayResult
	pts := make([]check.AvailPoint, 0, GrayHorizon)
	for tick := int64(1); tick <= GrayHorizon; tick++ {
		ctl.AdvanceTo(tick)
		c.Tick()
		rounds, ok := c.ProposeAndCountRounds([]byte{byte(tick), byte(tick >> 8)})
		if ok {
			res.Committed++
			res.CommitRounds += int64(rounds)
		}
		pts = append(pts, check.AvailPoint{T: tick, OK: ok, MajorityConnected: c.HasConnectedMajority()})
	}
	res.Avail = check.Availability(pts)
	res.TermDelta = c.MaxTerm() - boot
	res.StepDowns = c.StepDowns()
	return res, nil
}

// DefendedDiff checks a hardened episode against the defended bounds on
// unavailability and term growth.
func (r GrayResult) DefendedDiff(job string) check.Diff {
	d := check.DiffAvailability(job, r.Avail, grayMaxLongest, grayMaxTotal)
	if r.TermDelta > grayMaxTermDelta {
		d.OK = false
		d.Details = append(d.Details, fmt.Sprintf("term growth %d > bound %d", r.TermDelta, grayMaxTermDelta))
	}
	return d
}

// ControlLivelocked reports whether a control episode shows the gray
// failure's teeth — runaway terms or a substantial unavailability
// total. Without them the defended bounds gate against a strawman.
func (r GrayResult) ControlLivelocked() bool {
	return r.TermDelta >= grayCtlTermDelta || r.Avail.Total >= grayCtlUnavail
}

package models

import (
	"context"
	"fmt"

	"repro/internal/gtpn"
	"repro/internal/timing"
)

// clientModel is the non-local client-node net (Figures 6.10/6.13): all
// clients on one node, with a surrogate delay standing in for the remote
// server. sd is the current estimate of that delay in microseconds.
func buildClient(arch timing.Arch, n, hosts int, sd float64) (*gtpn.Net, string) {
	p := timing.ClientParamsFor(arch)
	nb := newNetBuilder()
	nb.gateKey = "intr(NetIntr,TCleanup)"
	b := nb.b

	clients := b.Place("Clients", n)
	host := nb.resPlace("Host", hosts)
	comm := host
	if !p.Shared {
		comm = nb.resPlace("MP", 1)
	}
	ioOut := nb.resPlace("IoOut", 1)
	ioIn := nb.resPlace("IoIn", 1)
	netIntr := b.Place("NetIntr", 0)

	// Interrupt-priority gate: task-level stages on the communication
	// processor freeze while a network interrupt pends or is in service.
	cleanupID := gtpn.TransID(-1)
	gate := func(v gtpn.View) bool {
		if v.Tokens(netIntr) > 0 {
			return false
		}
		if cleanupID >= 0 && v.Firing(cleanupID) > 0 {
			return false
		}
		return true
	}

	// Send path.
	pktOut := b.Place("PktOut", 0)
	if p.HostSend > 0 {
		sendQ := b.Place("SendQ", 0)
		nb.stage("THostSend", clients, host, true, p.HostSend, nil, sendQ)
		nb.stage("TSendProc", sendQ, comm, true, p.CommSend, gate, pktOut)
	} else {
		// Architecture I: the whole send path is one host stage, gated
		// against pending interrupts (Table 6.7 T1/T2).
		nb.stage("TSendProc", clients, comm, true, p.CommSend, gate, pktOut)
	}

	// DMA out, surrogate server delay, DMA in.
	srvWait := b.Place("ServerWait", 0)
	nb.stage("TDMAOut", pktOut, ioOut, true, p.DMAOut, nil, srvWait)
	pktIn := b.Place("PktIn", 0)
	nb.stage("TServer", srvWait, 0, false, sd, nil, pktIn)
	var dmaInGate gateFunc
	if p.Shared {
		// Architecture I: the host programs the inbound DMA, so it too is
		// inhibited during interrupt service (Table 6.7 T11/T12).
		dmaInGate = gate
	}
	nb.stage("TDMAIn", pktIn, ioIn, true, p.DMAIn, dmaInGate, netIntr)

	// Network-interrupt service: cleanup and restart the client.
	nb.stage("TCleanup", netIntr, comm, true, p.CommCleanup, nil, clients)

	net := b.MustBuild()
	id, _ := net.TransByName("TCleanup")
	cleanupID = id
	return net, "TCleanup"
}

// serverModel is the non-local server-node net (Figures 6.11/6.14): all
// servers on one node; cd is the surrogate mean waiting time for client
// requests. It returns the net, the arrival transition name (lambda),
// and the places/transitions bounding the "dotted box" whose population
// is the mean number of busy servers.
func buildServer(arch timing.Arch, n, hosts int, cd, xUS float64) (net *gtpn.Net, arrival string, boxPlaces, boxTrans []string) {
	p := timing.ServerParamsFor(arch)
	nb := newNetBuilder()
	nb.gateKey = "intr(ReqIntr,TMatch)"
	b := nb.b

	servers := b.Place("Servers", n)
	host := nb.resPlace("Host", hosts)
	comm := host
	if !p.Shared {
		comm = nb.resPlace("MP", 1)
	}
	reqIntr := b.Place("ReqIntr", 0)

	matchID := gtpn.TransID(-1)
	gate := func(v gtpn.View) bool {
		if v.Tokens(reqIntr) > 0 {
			return false
		}
		if matchID >= 0 && v.Firing(matchID) > 0 {
			return false
		}
		return true
	}

	// Receive path into the client wait.
	clientWait := b.Place("ClientWait", 0)
	if p.HostRecv > 0 {
		recvQ := b.Place("RecvQ", 0)
		nb.stage("THostRecv", servers, host, true, p.HostRecv, nil, recvQ)
		nb.stage("TRecvProc", recvQ, comm, true, p.CommRecv, gate, clientWait)
	} else {
		nb.stage("TRecvProc", servers, comm, true, p.CommRecv, gate, clientWait)
	}

	// Surrogate arrival of the client's request (the end of this stage is
	// the network interrupt marking a request arrival).
	nb.stage("TArrive", clientWait, 0, false, cd, nil, reqIntr)

	// Interrupt service: match the arriving request with the waiting
	// server.
	srvReady := b.Place("SrvReady", 0)
	nb.stage("TMatch", reqIntr, comm, true, p.CommMatch, nil, srvReady)

	// Compute + reply.
	computeMean := p.HostCompute + xUS
	var computeGate gateFunc
	if p.Shared {
		computeGate = gate // architecture I: host stages freeze during interrupts
	}
	if p.CommReply > 0 {
		replyQ := b.Place("ReplyQ", 0)
		nb.stage("TCompute", srvReady, host, true, computeMean, computeGate, replyQ)
		nb.stage("TReplyProc", replyQ, comm, true, p.CommReply, gate, servers)
	} else {
		nb.stage("TCompute", srvReady, host, true, computeMean, computeGate, servers)
	}

	net = b.MustBuild()
	id, _ := net.TransByName("TMatch")
	matchID = id

	boxPlaces = []string{"ReqIntr", "SrvReady"}
	boxTrans = []string{"TMatch", "TMatch.loop", "TCompute", "TCompute.loop"}
	if p.CommReply > 0 {
		boxPlaces = append(boxPlaces, "ReplyQ")
		boxTrans = append(boxTrans, "TReplyProc", "TReplyProc.loop")
	}
	return net, "TArrive", boxPlaces, boxTrans
}

// initialSd is the §6.6.3 starting estimate of the surrogate server
// delay: the sum of the communication time and compute time.
func initialSd(sp timing.ServerParams, xUS float64) float64 {
	return sp.HostRecv + sp.CommRecv + sp.CommMatch + sp.HostCompute + xUS +
		sp.CommReply + sp.DMAIn + sp.DMAOut
}

// NonLocalResult reports the converged non-local fixed point.
type NonLocalResult struct {
	// Throughput is completed round trips per microsecond (the client
	// model's cleanup rate).
	Throughput float64
	// RoundTrip is the mean per-conversation cycle time, microseconds.
	RoundTrip float64
	// Sd is the converged surrogate server delay seen by a client.
	Sd float64
	// Cd is the converged mean waiting time for client requests seen by
	// a server.
	Cd float64
	// Iterations the fixed point took.
	Iterations int
	// ClientStates/ServerStates are the final reachability-graph sizes.
	ClientStates, ServerStates int
	// ClientUtilization/ServerUtilization map each node's resources
	// ("Host", "MP", "IoOut", "IoIn") to their predicted utilization in
	// the final fixed-point iterate.
	ClientUtilization, ServerUtilization map[string]float64
}

// SolveNonLocal runs the §6.6.3 iteration: clients grouped on one node,
// servers on another, solved alternately until the surrogate server
// delay stabilizes.
func SolveNonLocal(arch timing.Arch, n, hosts int, xUS float64, opts SolveOptions) (NonLocalResult, error) {
	return SolveNonLocalContext(context.Background(), arch, n, hosts, xUS, opts)
}

// SolveNonLocalContext is SolveNonLocal with cancellation threaded
// through the fixed-point iteration: ctx is polled between iterates and
// inside each per-net solve, so a request deadline bounds even the long
// multi-iterate non-local solves.
func SolveNonLocalContext(ctx context.Context, arch timing.Arch, n, hosts int, xUS float64, opts SolveOptions) (NonLocalResult, error) {
	sp := timing.ServerParamsFor(arch)
	cp := timing.ClientParamsFor(arch)

	// Token counts behind each node's resource tags, mirroring the
	// resPlace calls in buildClient/buildServer.
	clientTokens := map[string]int{"Host": hosts, "IoOut": 1, "IoIn": 1}
	if !cp.Shared {
		clientTokens["MP"] = 1
	}
	serverTokens := map[string]int{"Host": hosts}
	if !sp.Shared {
		serverTokens["MP"] = 1
	}

	// "The client model is solved assuming an initial server delay equal
	// to the sum of the communication time and compute time."
	sd := initialSd(sp, xUS)
	// S_c: the server-side time overlapped with the client's busy period.
	sc := sp.HostRecv + sp.CommRecv

	const (
		maxIter = 60
		relTol  = 1e-3
	)
	var res NonLocalResult
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		cnet, cleanup := buildClient(arch, n, hosts, sd)
		csol, err := cnet.SolveContext(ctx, opts.gtpnOpts())
		if err != nil {
			return res, fmt.Errorf("models: client model (arch %v, n=%d): %w", arch, n, err)
		}
		if err := converged(csol, "client", arch, n); err != nil {
			return res, err
		}
		lam := csol.Rate(cleanup)
		if lam <= 0 {
			return res, fmt.Errorf("models: client model produced zero throughput")
		}
		t := float64(n) / lam         // mean client cycle time
		cdPrime := t - sd             // client busy time on its own node
		cd := maxFloat(cdPrime-sc, 1) // subtract the overlapped receive (§6.6.3)

		snet, arrival, boxP, boxT := buildServer(arch, n, hosts, cd, xUS)
		ssol, err := snet.SolveContext(ctx, opts.gtpnOpts())
		if err != nil {
			return res, fmt.Errorf("models: server model (arch %v, n=%d): %w", arch, n, err)
		}
		if err := converged(ssol, "server", arch, n); err != nil {
			return res, err
		}
		lamS := ssol.Rate(arrival)
		if lamS <= 0 {
			return res, fmt.Errorf("models: server model produced zero arrival rate")
		}
		nBusy := ssol.Population(boxP, boxT)
		// Little's law over the dotted box, plus the packet DMA times
		// charged outside the server net (§6.6.4).
		sdNew := nBusy/lamS + sp.DMAIn + sp.DMAOut

		res = NonLocalResult{
			Throughput:        lam,
			RoundTrip:         t,
			Sd:                sdNew,
			Cd:                cd,
			Iterations:        iter,
			ClientStates:      csol.States,
			ServerStates:      ssol.States,
			ClientUtilization: utilization(csol.ResourceUsage, clientTokens),
			ServerUtilization: utilization(ssol.ResourceUsage, serverTokens),
		}
		if diff := sdNew - sd; diff < 0 {
			diff = -diff
			if diff/sd < relTol {
				return res, nil
			}
		} else if diff/sd < relTol {
			return res, nil
		}
		// Damped update for robust convergence.
		sd = (sd + sdNew) / 2
	}
	return res, fmt.Errorf("models: non-local iteration did not converge after %d rounds (arch %v, n=%d, X=%.0f)", maxIter, arch, n, xUS)
}

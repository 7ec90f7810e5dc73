// Package guvm is a discrete-event simulation of the NVIDIA Unified
// Virtual Memory (UVM) system, reproducing the system under study in
// Allen & Ge, "In-Depth Analyses of Unified Virtual Memory System for GPU
// Accelerated Computing" (SC '21). It models the full fault path: GPU
// fault generation (SMs, µTLBs, throttling, the fault buffer), the UVM
// driver (fault batching, VABlock servicing, duplicate handling, density
// prefetching, LRU eviction), the host OS costs on the fault path
// (unmap_mapping_range, page population, radix-tree DMA bookkeeping), and
// the PCIe interconnect.
//
// Quick start:
//
//	sim, err := guvm.NewSimulator(guvm.DefaultConfig())
//	res, err := sim.Run(workloads.NewStream(64<<20, 128))
//	// res.Batches holds per-batch telemetry; res.KernelTime the GPU time.
//
// One Simulator runs one workload per device; create a fresh Simulator per
// run.
package guvm

import (
	"errors"
	"fmt"

	"guvm/internal/audit"
	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// ErrStalled is the sentinel for a run that drained its event queue with
// the kernel still incomplete: some fault was lost and never recovered
// (reachable only under fault injection, e.g. dropped fault records whose
// re-emission budget ran out with no later replay to re-fault them).
var ErrStalled = errors.New("guvm: simulation stalled")

// ErrSimulatorReused is the sentinel matched by errors.Is when a
// single-shot Simulator is run a second time.
var ErrSimulatorReused = errors.New("guvm: simulator is single-shot; create a new one per run")

// SystemConfig assembles the configuration of every modeled component.
type SystemConfig struct {
	GPU    gpu.Config
	Driver uvm.Config
	Host   hostos.CostModel
	Link   interconnect.Config
	// MaxEvents bounds the simulation as a livelock backstop.
	MaxEvents uint64
	// MaxStallEvents aborts the run once this many consecutive events
	// execute without the virtual clock advancing — a no-progress
	// watchdog that catches zero-delay scheduling loops long before
	// MaxEvents would. Zero disables it.
	MaxStallEvents uint64
	// Inject configures the deterministic fault-injection layer. The
	// zero value (all rates zero) disables injection and leaves every
	// simulation output bit-identical to an injector-free run.
	Inject faultinject.Config
	// HW configures the hardware fault domain: link degradation and
	// flapping, and scheduled device death. The zero value disables the
	// domain entirely and leaves every simulation output bit-identical
	// to a domain-free run.
	HW faultinject.HardwareConfig
	// KeepFaults retains every fetched fault record in the result
	// (needed by fault-timeline experiments; memory-heavy).
	KeepFaults bool
	// KeepSpans retains per-batch serviced page spans.
	KeepSpans bool
	// Audit configures the runtime invariant auditor. The zero value
	// attaches no auditor and leaves the run unobserved.
	Audit audit.Config
	// Obs configures the observability layer (span tracing, metrics
	// sampling). The zero value attaches nothing: no observer hooks, no
	// instrumentation, zero cost on the fault-service path.
	Obs obs.Config
	// Policies selects the driver's eviction/prefetch/batch-sizing
	// policies and its architecture (the stage graph itself) by registry
	// name (see uvm.Policies for the catalog), overriding the
	// corresponding Driver knobs. Empty fields leave the knobs untouched;
	// an unregistered name makes NewSimulator return an error wrapping
	// uvm.ErrUnknownPolicy.
	Policies uvm.PolicySelection
}

// DefaultConfig returns the experiment-scale profile: a Titan-V-like GPU
// with a scaled 256 MB memory capacity so oversubscription studies run in
// seconds (see DESIGN.md §1 on scaling).
func DefaultConfig() SystemConfig {
	return SystemConfig{
		GPU:            gpu.DefaultTitanV(),
		Driver:         uvm.DefaultConfig(),
		Host:           hostos.DefaultCostModel(),
		Link:           interconnect.DefaultPCIe3x16(),
		MaxEvents:      500_000_000,
		MaxStallEvents: 2_000_000,
		Inject:         faultinject.DefaultConfig(),
		HW:             faultinject.DefaultHardwareConfig(),
	}
}

// TitanVConfig returns the full paper-testbed profile with 12 GB of GPU
// memory. Workload footprints must be scaled up accordingly.
func TitanVConfig() SystemConfig {
	c := DefaultConfig()
	c.Driver.GPUMemBytes = 12 << 30
	return c
}

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	// KernelTime is the summed duration of all GPU phases (the "Kernel"
	// column of Table 4).
	KernelTime sim.Time
	// TotalTime is the end-to-end virtual time including host phases
	// and trailing driver work.
	TotalTime sim.Time
	// Batches is the per-batch telemetry (aliases the collector's
	// records).
	Batches []trace.BatchRecord
	// Faults holds every fetched fault when KeepFaults was set, with
	// FaultBatch mapping each to its batch ID.
	Faults     []gpu.Fault
	FaultBatch []int
	// Bases are the allocation base addresses, in workload Allocs order.
	Bases []mem.Addr

	DriverStats uvm.Stats
	DeviceStats gpu.Stats
	HostStats   hostos.Stats
	LinkStats   interconnect.Stats
	// InjectStats holds the per-category injected/retried/recovered/
	// unrecovered counters (all zero when injection is disabled).
	InjectStats faultinject.Stats
	// HWStats holds the hardware fault-domain counters (all zero when
	// the domain is disabled).
	HWStats faultinject.HardwareStats
	// DeviceFailed reports that the hardware fault domain killed the
	// device mid-run; the driver re-homed every resident page to the
	// host (DriverStats.RehomedPages) and the workload was truncated.
	DeviceFailed bool
	// Audit is the invariant auditor's report (nil unless
	// SystemConfig.Audit is active).
	Audit *audit.Report
}

// BatchTime sums all batch durations.
func (r *Result) BatchTime() sim.Time {
	var t sim.Time
	for i := range r.Batches {
		t += r.Batches[i].Duration()
	}
	return t
}

// BytesMigrated sums to-GPU migration volume.
func (r *Result) BytesMigrated() uint64 {
	var n uint64
	for i := range r.Batches {
		n += r.Batches[i].BytesMigrated
	}
	return n
}

// Simulator wires n ≥ 1 GPUs onto one host and a shared discrete-event
// engine. Each device has its own driver state, memory and PCIe link; the
// host VM is shared (one OS), and every driver contends for the one host
// fault-servicing slot held by Arbiter — the paper's client-server
// architecture (§2.1), where the serial host driver services every
// client. A single-GPU system is the uncontended case.
type Simulator struct {
	Config  SystemConfig
	Engine  *sim.Engine
	Devices []*gpu.Device
	Drivers []*uvm.Driver
	HostVM  *hostos.VM
	// Arbiter serializes batch servicing across the drivers and is the
	// ledger of device-loss recoveries.
	Arbiter *uvm.Arbiter
	// Injector is shared by every device, so injection decisions stay
	// deterministic under the engine's global event order.
	Injector *faultinject.Injector
	// HW is the shared hardware fault-domain injector (nil unless
	// SystemConfig.HW enables a fault regime). Link-health draws stay
	// independent per device: each decision folds in the link index.
	HW *faultinject.HardwareInjector
	// Auditors holds one auditor per device (empty unless
	// SystemConfig.Audit is active).
	Auditors []*audit.Auditor
	// Obs is the attached observer (nil unless SystemConfig.Obs is
	// active). A nil observer is safe to call everywhere.
	Obs *obs.Observer

	used bool
}

// NewSimulator builds a single-GPU simulator. An invalid component or
// injection configuration is an error.
func NewSimulator(cfg SystemConfig) (*Simulator, error) {
	return NewMultiSimulator(cfg, 1)
}

// NewMultiSimulator builds an n-device simulator. An invalid component or
// injection configuration is an error, and so is an active cfg.Obs with
// more than one device: the observer follows a single device.
func NewMultiSimulator(cfg SystemConfig, n int) (*Simulator, error) {
	if n < 1 {
		return nil, fmt.Errorf("guvm: %d devices, need at least one", n)
	}
	if cfg.Obs.Active() && n > 1 {
		return nil, fmt.Errorf("guvm: SystemConfig.Obs observes one device, system has %d devices", n)
	}
	if err := cfg.Policies.Apply(&cfg.Driver); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	eng.MaxEvents = cfg.MaxEvents
	eng.MaxStallEvents = cfg.MaxStallEvents
	vm := hostos.NewVM(cfg.Host)
	inj, err := faultinject.New(cfg.Inject)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		Config:   cfg,
		Engine:   eng,
		HostVM:   vm,
		Arbiter:  uvm.NewArbiter(eng),
		Injector: inj,
	}
	if cfg.HW.Enabled() {
		hw, err := faultinject.NewHardware(cfg.HW)
		if err != nil {
			return nil, err
		}
		if cfg.HW.KillBatch > 0 && cfg.HW.KillDevice >= n {
			return nil, fmt.Errorf("guvm: HW.KillDevice = %d, system has %d devices",
				cfg.HW.KillDevice, n)
		}
		s.HW = hw
	}
	for i := 0; i < n; i++ {
		link := interconnect.NewLink(cfg.Link)
		drv, err := uvm.NewDriver(cfg.Driver, eng, vm, link)
		if err != nil {
			return nil, err
		}
		drv.Collector.KeepFaults = cfg.KeepFaults
		drv.Collector.KeepSpans = cfg.KeepSpans
		dev, err := gpu.NewDevice(cfg.GPU, eng, drv)
		if err != nil {
			return nil, err
		}
		drv.Attach(dev)
		drv.SetArbiter(s.Arbiter)
		drv.SetInjector(inj)
		dev.SetInjector(inj)
		if s.HW != nil {
			link.SetHardware(s.HW, i, eng.Now)
			drv.SetHardware(s.HW)
		}
		if cfg.Audit.Active() {
			// With several devices every driver aliases the one host VM,
			// injector and hardware domain, so the per-device checks that
			// reconcile against them are skipped.
			a := audit.New(cfg.Audit, audit.Options{Shared: n > 1}, eng, drv, dev, vm, inj)
			a.SetHardware(s.HW)
			a.Attach()
			s.Auditors = append(s.Auditors, a)
		}
		s.Drivers = append(s.Drivers, drv)
		s.Devices = append(s.Devices, dev)
	}
	if s.HW != nil && cfg.HW.KillBatch > 0 {
		// Device-death schedule: after the victim completes the configured
		// batch (observers run with the service slot released), kill it,
		// re-home its pages, declare its link dead and record the recovery
		// in the arbiter ledger. Surviving devices keep running; the drain
		// cost is scheduled so total time covers the recovery.
		victim, kill := cfg.HW.KillDevice, cfg.HW.KillBatch
		drv, dev := s.Drivers[victim], s.Devices[victim]
		drv.AddBatchObserver(func(id int, _ *trace.BatchRecord) {
			if id+1 != kill {
				return
			}
			dev.Kill()
			rep := drv.RehomeToHost()
			s.HW.NoteDeviceKilled()
			drv.Link().Kill()
			s.Arbiter.NoteRehome(uvm.RehomeRecord{Device: victim, Batch: kill,
				Blocks: rep.Blocks, Pages: rep.Pages, Bytes: rep.Bytes, At: eng.Now()})
			eng.Schedule(rep.Cost, func() {})
		})
	}
	if cfg.Obs.Active() {
		drv := s.Drivers[0]
		s.Obs = obs.New(cfg.Obs)
		// The driver's effective costs can differ from cfg.Driver (the
		// selected architecture may rewrite its cost model).
		s.Obs.SetBatchSetupCost(drv.Config().Costs.BatchSetup)
		s.registerMetrics()
		if s.Obs.Profiler != nil {
			// The profiler hooks run inside the pipeline, before the
			// batch observers — its metrics are current when OnBatch
			// samples the registry. Its per-step attribution follows the
			// architecture's declared block-step label contract.
			s.Obs.Profiler.SetBlockStepLabels(drv.Architecture().BlockSteps)
			drv.SetProfiler(s.Obs.Profiler)
		}
		drv.AddBatchObserver(s.Obs.OnBatch)
		if cfg.Obs.Trace && cfg.Obs.EngineEvents {
			eng.OnEvent = s.Obs.NoteEvent
		}
	}
	return s, nil
}

// registerMetrics exposes every subsystem's counters as pull gauges over
// the live component state. The functions run only at sample points on the
// simulation goroutine (Stats() returns copies), so registration adds no
// instrumentation to the fault-service hot path.
func (s *Simulator) registerMetrics() {
	r := s.Obs.Registry
	drv, dev := s.Drivers[0], s.Devices[0]
	r.Func("guvm_sim_time_ns", "Current virtual time in nanoseconds",
		func() float64 { return float64(s.Engine.Now()) })
	r.Func("guvm_engine_events_total", "Events dispatched by the simulation engine",
		func() float64 { return float64(s.Engine.Executed()) })

	r.Func("guvm_driver_batches_total", "Fault batches serviced",
		func() float64 { return float64(drv.Stats().Batches) })
	r.Func("guvm_driver_faults_total", "Fault records fetched across batches",
		func() float64 { return float64(drv.Stats().TotalFaults) })
	r.Func("guvm_driver_stale_faults_total", "Fetched faults already resident (stale duplicates)",
		func() float64 { return float64(drv.Stats().StaleFaults) })
	r.Func("guvm_driver_evictions_total", "VABlock evictions under memory pressure",
		func() float64 { return float64(drv.Stats().Evictions) })
	r.Func("guvm_driver_prefetched_pages_total", "Pages migrated by density prefetching",
		func() float64 { return float64(drv.Stats().PrefetchedPages) })
	r.Func("guvm_driver_migrated_pages_total", "Pages migrated to the GPU on the fault path",
		func() float64 { return float64(drv.Stats().MigratedPages) })
	r.Func("guvm_driver_wakeups_total", "Driver wakeups from fault-buffer interrupts",
		func() float64 { return float64(drv.Stats().WakeUps) })
	r.Func("guvm_driver_batch_shrinks_total", "Effective-batch halvings under host allocation pressure",
		func() float64 { return float64(drv.Stats().BatchShrinks) })

	r.Func("guvm_gpu_faults_emitted_total", "Fault records written to the fault buffer",
		func() float64 { return float64(dev.Stats().FaultsEmitted) })
	r.Func("guvm_gpu_dup_faults_total", "Fault records emitted while the page was already pending",
		func() float64 { return float64(dev.Stats().DupFaults) })
	r.Func("guvm_gpu_refaults_total", "Accesses re-faulted after an unserviced replay",
		func() float64 { return float64(dev.Stats().Refaults) })
	r.Func("guvm_gpu_throttle_stalls_total", "Issue attempts delayed by the SM rate throttle",
		func() float64 { return float64(dev.Stats().ThrottleStalls) })
	r.Func("guvm_gpu_utlb_full_stalls_total", "Warp stalls on µTLB capacity",
		func() float64 { return float64(dev.Stats().UTLBFullStalls) })
	r.Func("guvm_gpu_blocks_completed_total", "Thread blocks retired",
		func() float64 { return float64(dev.Stats().BlocksCompleted) })

	r.Func("guvm_host_unmap_calls_total", "unmap_mapping_range invocations",
		func() float64 { return float64(s.HostVM.Stats().UnmapCalls) })
	r.Func("guvm_host_pages_unmapped_total", "CPU PTEs torn down",
		func() float64 { return float64(s.HostVM.Stats().PagesUnmapped) })
	r.Func("guvm_host_pages_populated_total", "Host pages populated on the fault path",
		func() float64 { return float64(s.HostVM.Stats().PagesPopulated) })
	r.Func("guvm_host_dma_pages_mapped_total", "Reverse-DMA pages tracked in the radix tree",
		func() float64 { return float64(s.HostVM.Stats().DMAPagesMapped) })
	r.Func("guvm_host_radix_nodes", "Radix-tree nodes currently allocated",
		func() float64 { return float64(s.HostVM.Stats().RadixNodes) })

	r.Func("guvm_link_ops_total", "Interconnect transfer operations",
		func() float64 { return float64(drv.Link().Stats().Ops) })
	r.Func("guvm_link_bytes_to_gpu_total", "Bytes moved host-to-GPU",
		func() float64 { return float64(drv.Link().Stats().BytesToGPU) })
	r.Func("guvm_link_bytes_to_host_total", "Bytes moved GPU-to-host",
		func() float64 { return float64(drv.Link().Stats().BytesToHost) })

	if s.HW != nil {
		r.Func("guvm_hw_link_health", "Current link health (0 healthy, 1 degraded, 2 flapping, 3 dead)",
			func() float64 { return float64(drv.Link().Health()) })
		r.Func("guvm_hw_degraded_epochs_total", "Link-health epochs drawn degraded so far",
			func() float64 {
				_, deg, _ := s.HW.EpochHealthCounts(0, s.Engine.Now())
				return float64(deg)
			})
		r.Func("guvm_hw_flapping_epochs_total", "Link-health epochs drawn flapping so far",
			func() float64 {
				_, _, flap := s.HW.EpochHealthCounts(0, s.Engine.Now())
				return float64(flap)
			})
		r.Func("guvm_hw_link_retries_total", "Transfer operations re-carried after injected drops",
			func() float64 { return float64(drv.Stats().HWLinkRetries) })
		r.Func("guvm_hw_degraded_shrinks_total", "Batch halvings by the degraded-aware sizer",
			func() float64 { return float64(drv.Stats().DegradedShrinks) })
		r.Func("guvm_hw_rehomed_pages_total", "Pages re-homed to the host after device death",
			func() float64 { return float64(drv.Stats().RehomedPages) })
		r.Func("guvm_hw_devices_killed_total", "Devices killed by the fault schedule",
			func() float64 { return float64(s.HW.Stats().DevicesKilled) })
		r.Func("guvm_hw_transfer_injected_total", "Injected link-transfer drops",
			func() float64 { return float64(s.HW.Stats().LinkTransfer.Injected) })
		r.Func("guvm_hw_transfer_recovered_total", "Transfers recovered after injected drops",
			func() float64 { return float64(s.HW.Stats().LinkTransfer.Recovered) })
		r.Func("guvm_hw_transfer_unrecovered_total", "Transfers that exhausted their retry budget",
			func() float64 { return float64(s.HW.Stats().LinkTransfer.Unrecovered) })
	}

	for _, c := range []struct {
		name string
		get  func() faultinject.Counters
	}{
		{"buffer_drop", func() faultinject.Counters { return s.Injector.Stats().BufferDrop }},
		{"migrate", func() faultinject.Counters { return s.Injector.Stats().Migrate }},
		{"host_alloc", func() faultinject.Counters { return s.Injector.Stats().HostAlloc }},
	} {
		r.Func("guvm_inject_"+c.name+"_injected_total", "Faults injected in category "+c.name,
			func() float64 { return float64(c.get().Injected) })
		r.Func("guvm_inject_"+c.name+"_retried_total", "Retries after injection in category "+c.name,
			func() float64 { return float64(c.get().Retried) })
		r.Func("guvm_inject_"+c.name+"_recovered_total", "Operations recovered after injection in category "+c.name,
			func() float64 { return float64(c.get().Recovered) })
		r.Func("guvm_inject_"+c.name+"_unrecovered_total", "Operations that exhausted retries in category "+c.name,
			func() float64 { return float64(c.get().Unrecovered) })
	}
}

// Run executes the workload on a single-GPU simulator under UVM demand
// paging and returns its telemetry. A Simulator is single-shot: a second
// run returns an error wrapping ErrSimulatorReused.
func (s *Simulator) Run(w workloads.Workload) (*Result, error) {
	return first(s.run([]workloads.Workload{w}, false))
}

// RunExplicit executes the workload on a single-GPU simulator under
// explicit (cudaMemcpy-style) management: every allocation is bulk-copied
// to the GPU before the first kernel, so no faults occur. This is the
// Figure 1 baseline.
func (s *Simulator) RunExplicit(w workloads.Workload) (*Result, error) {
	return first(s.run([]workloads.Workload{w}, true))
}

// RunConcurrent executes workload i on device i under UVM demand paging,
// all starting at virtual time zero, and returns one Result per device.
func (s *Simulator) RunConcurrent(ws []workloads.Workload) ([]*Result, error) {
	return s.run(ws, false)
}

// first unwraps the one result of a single-device run.
func first(rs []*Result, err error) (*Result, error) {
	if len(rs) == 0 {
		return nil, err
	}
	return rs[0], err
}

// where names device i in diagnostics; a single-GPU system needs no index.
func (s *Simulator) where(i int) string {
	if len(s.Devices) == 1 {
		return ""
	}
	return fmt.Sprintf("device %d ", i)
}

func (s *Simulator) run(ws []workloads.Workload, explicit bool) ([]*Result, error) {
	if s.used {
		return nil, fmt.Errorf("guvm: Simulator already ran: %w", ErrSimulatorReused)
	}
	s.used = true
	if len(ws) != len(s.Devices) {
		return nil, fmt.Errorf("guvm: %d workloads for %d devices", len(ws), len(s.Devices))
	}

	kernelTimes := make([]sim.Time, len(ws))
	basesPer := make([][]mem.Addr, len(ws))
	if s.Obs != nil {
		name := ws[0].Name()
		drv := s.Drivers[0]
		s.Obs.SetStatusFunc(func() any {
			return map[string]any{
				"workload":    name,
				"sim_time_ns": int64(s.Engine.Now()),
				"batches":     drv.Stats().Batches,
				"faults":      drv.Stats().TotalFaults,
				"events":      s.Engine.Executed(),
			}
		})
	}

	// The recover covers building each workload's phases too: a workload
	// that panics there (say, a size it cannot tile) fails the run with an
	// error instead of taking the caller's process down.
	var runErr, engErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("guvm: simulation panicked: %v", r)
			}
		}()
		for i, w := range ws {
			if basesPer[i], runErr = s.start(i, w, explicit, &kernelTimes[i]); runErr != nil {
				return
			}
		}
		_, engErr = s.Engine.Run()
	}()
	failure := runErr
	if failure == nil {
		failure = engErr
	}
	for i, dev := range s.Devices {
		if failure == nil && dev.Running() {
			// The event queue drained with a kernel incomplete: a fault
			// was lost for good (injected drops past their retry budget
			// with no later replay). Surface a typed diagnostic, not a
			// hang.
			failure = fmt.Errorf("guvm: %skernel incomplete at virtual time %d ns with no pending events: %w",
				s.where(i), s.Engine.Now(), ErrStalled)
		}
	}
	auditReps := make([]*audit.Report, len(ws))
	for i, a := range s.Auditors {
		auditReps[i] = a.Finish(failure)
	}
	// Final publish so live endpoints and exports see end-of-run state
	// even when the run finished between sample points.
	s.Obs.Publish()
	if failure != nil {
		return nil, failure
	}

	results := make([]*Result, len(ws))
	var auditErr error
	for i, drv := range s.Drivers {
		col := drv.Collector
		results[i] = &Result{
			Workload:     ws[i].Name(),
			KernelTime:   kernelTimes[i],
			TotalTime:    s.Engine.Now(),
			Batches:      col.Batches,
			Faults:       col.Faults,
			FaultBatch:   col.FaultBatch,
			Bases:        basesPer[i],
			DriverStats:  drv.Stats(),
			DeviceStats:  s.Devices[i].Stats(),
			HostStats:    s.HostVM.Stats(),
			LinkStats:    drv.Link().Stats(),
			InjectStats:  s.Injector.Stats(),
			HWStats:      s.HW.Stats(),
			DeviceFailed: drv.Dead(),
			Audit:        auditReps[i],
		}
		if err := auditReps[i].Err(); err != nil && auditErr == nil {
			// End-of-run checks failed on an otherwise clean run: hand
			// back the telemetry (the report pinpoints the violation)
			// plus the typed error.
			auditErr = fmt.Errorf("guvm: %srun completed but failed its audit: %w", s.where(i), err)
		}
	}
	return results, auditErr
}

// start allocates workload w on device i and schedules its start event at
// virtual time zero: the explicit bulk copy (if requested), then the
// phase chain. It returns the allocation bases; kernelTime accumulates
// the device's GPU phase time.
func (s *Simulator) start(i int, w workloads.Workload, explicit bool, kernelTime *sim.Time) ([]mem.Addr, error) {
	drv, dev := s.Drivers[i], s.Devices[i]
	allocs := w.Allocs()
	bases := make([]mem.Addr, len(allocs))
	var totalBytes uint64
	for j, a := range allocs {
		if a.Bytes == 0 {
			return nil, fmt.Errorf("guvm: workload %q allocation %d is empty", w.Name(), j)
		}
		var opts []uvm.AllocOption
		if a.HostInit && !explicit {
			opts = append(opts, uvm.WithHostInit(a.HostThreads))
		}
		bases[j] = drv.Alloc(a.Bytes, opts...)
		totalBytes += a.Bytes
	}
	if explicit && totalBytes > s.Config.Driver.GPUMemBytes {
		return nil, fmt.Errorf("guvm: explicit management cannot oversubscribe: need %d bytes, capacity %d",
			totalBytes, s.Config.Driver.GPUMemBytes)
	}

	phases := w.Phases(bases)
	var runPhase func(p int)
	runPhase = func(p int) {
		if p >= len(phases) {
			return
		}
		ph := phases[p]
		for _, ht := range ph.HostTouches {
			if !explicit {
				drv.TouchHost(ht.Base, ht.Bytes, ht.Threads)
			}
		}
		if ph.Kernel.NumBlocks == 0 {
			runPhase(p + 1)
			return
		}
		if s.Config.Driver.AsyncUnmap && !explicit {
			// §6 extension: unmap CPU mappings preemptively as the
			// application shifts to GPU compute, overlapping launch.
			drv.PreUnmapAllocations()
		}
		start := s.Engine.Now()
		err := dev.LaunchKernel(ph.Kernel, func() {
			*kernelTime += s.Engine.Now() - start
			s.Obs.OnKernel(p, start, s.Engine.Now()-start)
			runPhase(p + 1)
		})
		if err != nil {
			s.Engine.Fail(fmt.Errorf("guvm: %sphase %d: %w", s.where(i), p, err))
		}
	}

	s.Engine.Schedule(0, func() {
		if explicit {
			var copyCost sim.Time
			for j, a := range allocs {
				c, err := drv.ExplicitCopyToGPU(bases[j], a.Bytes)
				if err != nil {
					s.Engine.Fail(fmt.Errorf("guvm: %sallocation %d: %w", s.where(i), j, err))
					return
				}
				copyCost += c
			}
			s.Engine.Schedule(copyCost, func() { runPhase(0) })
			return
		}
		runPhase(0)
	})
	return bases, nil
}

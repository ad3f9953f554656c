//! Service front-door configuration.

use swift_sim::SimDuration;

/// Knobs of the long-running service controller.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Machines in the shared executor fleet.
    pub machines: u32,
    /// Pre-launched executors per machine.
    pub executors_per_machine: u32,
    /// Executors registered per tenant session (a warm pool slot).
    pub session_executors: u32,
    /// Hard per-tenant cap on held executors (across all its sessions),
    /// enforced at every cold session registration.
    pub tenant_quota: u32,
    /// Admission watermark: a job arriving while `queue_depth >=
    /// queue_watermark` is rejected with a retry-after hint instead of
    /// being queued.
    pub queue_watermark: u32,
    /// Deficit-round-robin quantum added to a tenant's deficit per ring
    /// visit; job cost is its total task count.
    pub drr_quantum: u64,
    /// Keep sessions warm after a job finishes and reuse them for the
    /// tenant's next job (`false` = tear down after every job, the cold
    /// baseline the bench compares against).
    pub warm_pool: bool,
    /// Idle time after which a warm session is expired and its executors
    /// returned to the fleet.
    pub session_ttl: SimDuration,
    /// Control-plane cost of a cold session registration (executor
    /// handshake, scheduler bring-up) paid before the job starts.
    pub cold_start_delay: SimDuration,
    /// Dispatch cost onto an already-warm session.
    pub warm_dispatch_delay: SimDuration,
    /// Back-off advertised to rejected jobs.
    pub retry_after: SimDuration,
    /// Telemetry sampling cadence (`None` = no counter frames).
    pub sample_every: Option<SimDuration>,
    /// Reuse scheduling templates across the fleet's jobs. Report bytes
    /// are invariant to this flag; only the returned template counters
    /// change.
    pub templates: bool,
    /// Shard lane count forwarded to every per-job simulation
    /// (`0` = legacy single queue, `1` = default).
    pub shards: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            machines: 8,
            executors_per_machine: 8,
            session_executors: 4,
            tenant_quota: 8,
            queue_watermark: 256,
            drr_quantum: 64,
            warm_pool: true,
            session_ttl: SimDuration::from_secs(30),
            cold_start_delay: SimDuration::from_millis(250),
            warm_dispatch_delay: SimDuration::from_millis(5),
            retry_after: SimDuration::from_secs(1),
            sample_every: None,
            templates: true,
            shards: 1,
        }
    }
}

impl ServiceConfig {
    /// Total executors in the fleet.
    pub fn fleet_executors(&self) -> u32 {
        self.machines * self.executors_per_machine
    }
}

#include "core/standalone.hh"

#include "core/snapshot.hh"

namespace jets::core {

double BatchReport::utilization() const {
  if (total_slots == 0 || batch_finished <= batch_started) return 0.0;
  double busy = 0.0;  // slot-seconds of useful work
  for (const JobRecord& r : records) {
    if (r.status != JobStatus::kDone) continue;
    busy += r.wall_seconds() * r.spec.workers_needed();
  }
  return busy / (static_cast<double>(total_slots) * makespan_seconds());
}

sim::Summary BatchReport::wall_times() const {
  sim::Summary s;
  for (const JobRecord& r : records) {
    if (r.status == JobStatus::kDone) s.add(r.wall_seconds());
  }
  return s;
}

os::Machine::Pid start_worker(os::Machine& machine, const os::AppRegistry& apps,
                              os::NodeId node, WorkerConfig config) {
  // The worker runs as a plain process; its Program closure owns the config.
  os::Program body = worker_program(apps, std::move(config));
  return machine.exec(
      node, "jets-worker",
      [](os::Machine* m, os::NodeId node, os::Program body) -> sim::Task<void> {
        os::Env env;
        env.machine = m;
        env.node = node;
        env.argv = {"jets-worker"};
        co_await body(env);
      }(&machine, node, std::move(body)));
}

StandaloneJets::StandaloneJets(os::Machine& machine,
                               const os::AppRegistry& apps,
                               StandaloneOptions options)
    : machine_(&machine), apps_(&apps), options_(std::move(options)) {}

void StandaloneJets::start(const std::vector<os::NodeId>& allocation) {
  service_ = std::make_unique<Service>(*machine_, *apps_,
                                       machine_->login_node(),
                                       options_.service);
  service_->start();
  WorkerConfig wc = options_.worker;
  wc.service = service_->address();
  for (os::NodeId node : allocation) {
    for (int s = 0; s < options_.workers_per_node; ++s) {
      workers_.push_back(start_worker(*machine_, *apps_, node, wc));
    }
  }
}

sim::Task<void> StandaloneJets::wait_workers(std::size_t n) {
  if (!service_) throw std::logic_error("StandaloneJets: start() first");
  if (n == 0) n = workers_.size();
  while (service_->connected_workers() < n) {
    co_await sim::delay(sim::milliseconds(100));
  }
}

sim::Task<BatchReport> StandaloneJets::run_batch(std::vector<JobSpec> jobs) {
  if (!service_) throw std::logic_error("StandaloneJets: start() first");
  BatchReport report;
  report.batch_started = machine_->engine().now();
  report.total_slots = workers_.size();
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (JobSpec& spec : jobs) ids.push_back(service_->submit(std::move(spec)));
  co_await service_->wait_all();
  report.batch_finished = machine_->engine().now();
  // Scope the report to *this* batch; the service's counters are
  // cumulative across a pilot allocation's lifetime.
  report.records.reserve(ids.size());
  for (JobId id : ids) {
    const JobRecord& rec = service_->record(id);
    report.records.push_back(rec);
    if (rec.status == JobStatus::kDone) ++report.completed;
    if (rec.status == JobStatus::kFailed) ++report.failed;
    if (rec.status == JobStatus::kQuarantined) {
      ++report.failed;
      ++report.quarantined;
    }
  }
  co_return report;
}

sim::Task<BatchReport> StandaloneJets::run_input(const std::string& input_text) {
  co_return co_await run_batch(parse_job_list(input_text, options_.default_ppn));
}

Checkpoint StandaloneJets::checkpoint() const {
  if (!service_) throw std::logic_error("StandaloneJets: service is down");
  return service_->checkpoint();
}

void StandaloneJets::crash_service() {
  if (!service_) throw std::logic_error("StandaloneJets: service is down");
  service_.reset();  // ~Service kills actors, disarms timers, frees the port
}

void StandaloneJets::restore_service(Snapshot snap) {
  if (service_) throw std::logic_error("StandaloneJets: service still up");
  service_ = std::make_unique<Service>(*machine_, *apps_,
                                       machine_->login_node(),
                                       options_.service, std::move(snap));
  service_->start();
}

}  // namespace jets::core

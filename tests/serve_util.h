#ifndef GTADOC_TESTS_SERVE_UTIL_H_
#define GTADOC_TESTS_SERVE_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "analytics/server.h"
#include "common/result.h"

namespace gtadoc {

/// Submits `request` through `tenant`, folding a structured rejection into
/// an error so a test can assert on one Result.
inline Result<CorpusServer::Submitted> Admit(
    CorpusServer::TenantHandle tenant,
    const CorpusServer::RunRequest& request) {
  auto submitted = tenant.Submit(request);
  if (!submitted.ok()) return submitted.status();
  if (!submitted->admitted()) {
    return Status::Internal("rejected: " + submitted->rejection->detail);
  }
  return submitted;
}

/// Serves every queued run to completion, then takes the results of
/// `tickets` in the order given.
inline Result<std::vector<CorpusServer::ServedRun>> ServeAll(
    CorpusServer* server, std::vector<CorpusServer::RunTicket> tickets) {
  GTADOC_RETURN_IF_ERROR(server->ServeUntilIdle());
  std::vector<CorpusServer::ServedRun> served;
  for (CorpusServer::RunTicket& ticket : tickets) {
    auto run = ticket.Await();
    if (!run.ok()) return run.status();
    served.push_back(std::move(*run));
  }
  return served;
}

/// Opens one unquotaed tenant, submits every request through it, and serves
/// them all: the tenant-API form of "submit a batch, serve it, read the
/// results in submission order".
inline Result<std::vector<CorpusServer::ServedRun>> SubmitAndServe(
    CorpusServer* server,
    const std::vector<CorpusServer::RunRequest>& requests) {
  auto tenant = server->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  std::vector<CorpusServer::RunTicket> tickets;
  for (const CorpusServer::RunRequest& request : requests) {
    auto submitted = Admit(*tenant, request);
    if (!submitted.ok()) return submitted.status();
    tickets.push_back(*submitted->ticket);
  }
  return ServeAll(server, std::move(tickets));
}

}  // namespace gtadoc

#endif  // GTADOC_TESTS_SERVE_UTIL_H_

#include "service/daemon.hh"

#include "service/protocol.hh"
#include "service/transport.hh"

namespace vtsim::service {

namespace {

std::string
okReply(Json::Object fields)
{
    fields["ok"] = Json(true);
    return Json(std::move(fields)).dump();
}

} // namespace

Daemon::Daemon(JobService &service, std::string socket_path)
    : service_(service),
      server_(std::move(socket_path),
              [this](int fd, const std::string &line) {
                  return handleLine(fd, line);
              })
{
    server_.setErrorHook([this](const std::string &error) {
        if (EventLog *log = service_.eventLog())
            log->emit("accept_error", {{"error", Json(error)}});
    });
}

void
Daemon::start()
{
    server_.start();
    if (EventLog *log = service_.eventLog())
        log->emit("listening", {{"socket", Json(server_.socketPath())}});
}

void
Daemon::serve()
{
    server_.serve();
}

void
Daemon::requestStop()
{
    server_.requestStop();
}

bool
Daemon::handleLine(int fd, const std::string &line)
{
    Request req;
    try {
        req = parseRequest(line);
    } catch (const std::exception &e) {
        // JsonError or ProtocolError: the client's problem, never the
        // daemon's.
        return sendLine(fd, errorReply(e.what()));
    }

    try {
        switch (req.op) {
          case Request::Op::Submit:
            return handleSubmit(fd, req);
          case Request::Op::Wait:
            return sendLine(fd,
                            snapshotToJson(service_.wait(req.job)).dump());
          case Request::Op::Query:
            return sendLine(
                fd, snapshotToJson(service_.query(req.job)).dump());
          case Request::Op::Status:
            return sendLine(fd, service_.status().dump());
          case Request::Op::Cancel: {
            std::string error;
            Json::Object o;
            if (service_.cancel(req.job, error)) {
                o["ok"] = Json(true);
                o["job"] = Json(req.job);
            } else {
                o["ok"] = Json(false);
                o["error"] = Json(error);
            }
            return sendLine(fd, Json(std::move(o)).dump());
          }
          case Request::Op::Ping:
            return sendLine(fd, okReply({{"op", Json("ping")}}));
          case Request::Op::Metrics: {
            // The Prometheus text (multi-line) rides inside the JSON
            // string: NDJSON framing keeps the reply one line.
            return sendLine(
                fd, okReply({{"op", Json("metrics")},
                             {"body", Json(service_.metricsText())}}));
          }
          case Request::Op::Shutdown: {
            sendLine(fd, okReply({{"state", Json("draining")}}));
            requestStop();
            return false;
          }
        }
    } catch (const std::exception &e) {
        return sendLine(fd, errorReply(e.what()));
    }
    return sendLine(fd, errorReply("unhandled op"));
}

bool
Daemon::handleSubmit(int fd, const Request &req)
{
    const auto outcome = service_.submit(req.spec, req.priority);
    Json::Object o;
    if (outcome.ok()) {
        o["ok"] = Json(true);
        o["job"] = Json(outcome.id);
    } else {
        o["ok"] = Json(false);
        if (!outcome.rejected.empty())
            o["rejected"] = Json(outcome.rejected);
        else
            o["error"] = Json(outcome.error);
    }
    return sendLine(fd, Json(std::move(o)).dump());
}

} // namespace vtsim::service

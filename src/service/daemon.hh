/**
 * @file
 * The vtsimd network front end: an NDJSON request server in front of a
 * JobService (see src/service/protocol.hh for the wire format), served
 * on a Unix-domain socket by service/line_server.hh. One accept loop,
 * one thread per connection; a connection carries any number of
 * request lines, each answered with exactly one reply line. Access
 * control is the socket file's permissions.
 *
 * Robustness contract: nothing a client sends may take the daemon
 * down. Malformed JSON, unknown ops, oversized request lines and
 * mid-request disconnects are answered with {"ok":false,...} (or the
 * connection is just dropped) while the accept loop keeps serving. The
 * "shutdown" op is the only way a client stops the daemon, and it
 * drains: serve() returns so the caller can JobService::shutdown() and
 * write the service stats JSON.
 */

#ifndef VTSIM_SERVICE_DAEMON_HH
#define VTSIM_SERVICE_DAEMON_HH

#include <cstddef>
#include <string>

#include "service/line_server.hh"
#include "service/protocol.hh"
#include "service/service.hh"

namespace vtsim::service {

class Daemon
{
  public:
    /** Longest accepted request line (see LineServer). */
    static constexpr std::size_t kMaxLineBytes = LineServer::kMaxLineBytes;

    /** A daemon for @p service listening on @p socket_path. */
    Daemon(JobService &service, std::string socket_path);

    /** Bind and listen. Throws TransportError on failure. */
    void start();

    /**
     * Accept-and-serve until requestStop() — typically triggered by a
     * client's "shutdown" op. Joins the connection threads before
     * returning, so replies in flight finish.
     */
    void serve();

    /** Ask serve() to return. Safe from signal handlers and
     *  connection threads. */
    void requestStop();

  private:
    /** Handle one request line; false closes the connection. */
    bool handleLine(int fd, const std::string &line);
    bool handleSubmit(int fd, const Request &req);

    JobService &service_;
    LineServer server_;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_DAEMON_HH

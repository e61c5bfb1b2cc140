/**
 * @file
 * Socket-level plumbing of the vtsimd daemon: the Unix-domain listener
 * and connector, and whole-line sends.
 *
 * Everything here is transport, not protocol: bytes and file
 * descriptors in, no JSON knowledge. The NDJSON framing (line split,
 * 64 KiB request cap) lives one layer up in service/line_server.hh.
 * Access control is the socket file's permissions.
 */

#ifndef VTSIM_SERVICE_TRANSPORT_HH
#define VTSIM_SERVICE_TRANSPORT_HH

#include <stdexcept>
#include <string>

namespace vtsim::service {

/** A socket-layer failure (refused, reset, bad path). */
class TransportError : public std::runtime_error
{
  public:
    explicit TransportError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Bind and listen on a Unix-domain socket path (stale file removed
 *  first). Returns the listening fd; throws TransportError. */
int listenUnix(const std::string &path);

/** Connect to a Unix-domain socket path; throws TransportError. */
int connectUnix(const std::string &path);

/**
 * Send @p line plus a trailing newline, whole (MSG_NOSIGNAL, EINTR
 * retried). False on a peer that hung up.
 */
bool sendLine(int fd, std::string line);

} // namespace vtsim::service

#endif // VTSIM_SERVICE_TRANSPORT_HH

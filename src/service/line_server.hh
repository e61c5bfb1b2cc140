/**
 * @file
 * The vtsimd NDJSON line server: one accept loop over a Unix-domain
 * listener, one thread per connection, newline framing with the
 * protocol's 64 KiB request-line cap — with the per-op dispatch left
 * to a handler callback.
 *
 * Robustness contract: nothing a client sends may take the server
 * down. Malformed lines are the handler's problem to answer; oversized
 * lines are rejected here without parsing and the connection closed
 * (the stream can no longer be trusted to be line-synchronized).
 *
 * The accept loop treats EINTR, ECONNABORTED and file-descriptor
 * exhaustion (EMFILE/ENFILE) as transient: logged, a brief sleep for
 * the fd-pressure cases so a busy loop cannot starve the process, and
 * the loop keeps serving. Only unexpected accept errors stop it.
 */

#ifndef VTSIM_SERVICE_LINE_SERVER_HH
#define VTSIM_SERVICE_LINE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace vtsim::service {

class LineServer
{
  public:
    /** Longest accepted request line; longer ones are rejected
     *  without parsing. */
    static constexpr std::size_t kMaxLineBytes = 64 * 1024;

    /**
     * Handle one request line; reply with sendLine(fd, ...). Return
     * false to close the connection (shutdown ops, unrecoverable
     * framing). Called from connection threads concurrently — the
     * handler synchronizes itself.
     */
    using Handler = std::function<bool(int fd, const std::string &line)>;

    /** Called on non-transient accept errors (evlog hook); may be
     *  empty. */
    using ErrorHook = std::function<void(const std::string &error)>;

    LineServer(std::string socket_path, Handler handler);

    /** Stops accepting and joins connection threads. */
    ~LineServer();

    /** Bind the Unix listener. Throws TransportError. */
    void start();

    /**
     * Accept-and-serve until requestStop(). Joins the connection
     * threads before returning, so replies in flight finish.
     */
    void serve();

    /** Ask serve() to return. Safe from signal handlers and
     *  connection threads. */
    void requestStop();

    const std::string &socketPath() const { return socketPath_; }

    void setErrorHook(ErrorHook hook) { errorHook_ = std::move(hook); }

  private:
    void serveConnection(int fd);
    /** Join (and forget) every connection thread spawned so far. */
    void serveJoin();
    /** Line-cap enforcement, then the handler. */
    bool dispatchLine(int fd, const std::string &line);

    std::string socketPath_;
    Handler handler_;
    ErrorHook errorHook_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::mutex connMu_;
    std::vector<std::thread> connections_;
    /** Open connection sockets: shut down at join time so threads
     *  blocked in recv() on long-lived sessions unblock. */
    std::set<int> connFds_;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_LINE_SERVER_HH

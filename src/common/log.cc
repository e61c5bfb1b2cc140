#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace vtsim {

void
fatalImpl(const char *file, int line, const std::string &message)
{
    std::ostringstream os;
    os << "fatal: " << message << " (" << file << ":" << line << ")";
    throw FatalError(os.str());
}

void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file, line);
    std::abort();
}

} // namespace vtsim

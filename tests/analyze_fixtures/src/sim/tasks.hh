/**
 * @file
 * Analyzer fixture: the Task vocabulary the dropped-task fixtures call.
 * Never compiled — only lexed/parsed by shrimp_analyze in
 * tests/test_analyze.cc. `poll` is deliberately declared twice with
 * different return types so the name is *ambiguous* in the Task index
 * and calls to it, which have no receiver to resolve, must not be
 * flagged. `send` is ambiguous too, but its calls go through typed
 * receivers: Endpoint::send returns a Task, Channel::send does not.
 * `append` is a Task wherever the index declares it (Sink::append),
 * so only a receiver of a standard-library class (`std::string`)
 * clears a call to it; LoudSink may inherit it, and an `auto &`
 * receiver has no class to clear it.
 */

#ifndef SHRIMP_SIM_TASKS_HH
#define SHRIMP_SIM_TASKS_HH

namespace shrimpfix
{

template <typename T = void> class Task;

Task<> tick();
Task<> pump();
Task<int> sample();

Task<> poll();
int poll(int fd);

void consume(Task<int> t);

class Endpoint
{
  public:
    Task<> send(int n);
};

class Channel
{
  public:
    void send(int n);
};

class Sink
{
  public:
    Task<> append(int n);
};

class LoudSink : public Sink
{
};

} // namespace shrimpfix

#endif // SHRIMP_SIM_TASKS_HH

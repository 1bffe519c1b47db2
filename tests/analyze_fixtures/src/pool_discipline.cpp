// Fixture: a packet built with `new` instead of taken from the pool ->
// pool-discipline.
struct Packet {
  int flow_id = 0;
};

Packet* forge_packet() {
  return new Packet();
}

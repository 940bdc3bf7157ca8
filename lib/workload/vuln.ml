(* The forking serve loop: each request arrives as a connection on the
   listening socket and a forked child handles its fd. The blocking
   waitpid keeps per-probe child attribution exact for the oracle. *)
let serve_skeleton =
  {|
int serve() {
  int lfd;
  int fd;
  int pid;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 16);
  while (1) {
    fd = accept();
    if (fd < 0) {
      break;
    }
    pid = fork();
    if (pid == 0) {
      handle(fd);
      close(fd);
      exit(0);
    }
    close(fd);
    waitpid();
  }
  return 0;
}

int main() {
  serve();
  return 0;
}
|}

let fork_server_net ~buffer_size =
  Printf.sprintf
    {|
int handle(int fd) {
  char buf[%d];
  int n = read(fd, buf, 1024);
  write_str(fd, "OK\n");
  return 0;
}
|}
    buffer_size
  ^ serve_skeleton

let echo_once ~buffer_size =
  Printf.sprintf
    {|
int handle() {
  char buf[%d];
  read_input(buf);
  print_str("handled\n");
  return 0;
}

int main() {
  handle();
  return 0;
}
|}
    buffer_size

let raf_correctness_probe =
  {|
int child_task() {
  char pad[16];
  pad[0] = 'c';
  return pad[0];
}

int risky_fork() {
  char buf[16];
  int pid;
  strcpy(buf, "parent");
  pid = fork();
  if (pid == 0) {
    child_task();
    return 7;
  }
  waitpid();
  return buf[0];
}

int main() {
  int r = risky_fork();
  if (r == 7) {
    exit(7);
  }
  print_str("parent done\n");
  return 0;
}
|}

let leaky_overflow_distance = 24

let leaky_server =
  {|
int handle(int fd) {
  char cmd[8];
  char buf[16];
  int n;
  n = read(fd, cmd, 1);
  if (n > 0 && cmd[0] == 'L') {
    write(fd, buf, 64);
    return 0;
  }
  read(fd, buf, 1024);
  write_str(fd, "OK\n");
  return 0;
}
|}
  ^ serve_skeleton

let lv_stealth_victim =
  {|
int handle() {
  critical char audit[16];
  char input[16];
  int i;
  for (i = 0; i < 16; i++) {
    audit[i] = 'G';
  }
  read_input(input);
  print_str("audit=");
  putchar(audit[0]);
  print_str("\n");
  return 0;
}

int main() {
  handle();
  return 0;
}
|}

let lv_stealth_payload =
  (* 16 bytes fill the plain buffer; 8 more land on whatever sits above
     it: the critical buffer (P-SSP-NT layout) or its LV canary. *)
  Bytes.cat (Bytes.make 16 'A') (Bytes.make 8 'X')

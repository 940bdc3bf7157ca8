(* EXPERIMENTS.md against the committed campaign goldens: every number
   in a bold ("measured") cell must appear in the golden stdout of the
   campaign its section reports, once digit-group spaces ("1 280") are
   removed. Prose outside bold text is not checked. *)

(* section heading prefix -> golden campaign in bench/expected/ *)
let sections =
  [
    ("## Table I —", "table1");
    ("## Figure 5 —", "fig5");
    ("## Table II —", "table2");
    ("## Table III —", "table3");
    ("## Table IV —", "table4");
    ("## Table V —", "table5");
    ("## Effectiveness", "effectiveness");
    ("## Compatibility", "compat");
    ("## Theorem 1", "theorem1");
    ("## Exposure resilience", "exposure");
    ("## Ablations", "ablation");
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all
let is_digit c = c >= '0' && c <= '9'

(* "1 280" -> "1280": drop a space between a digit and a group of
   exactly three digits *)
let ungroup s =
  let n = String.length s in
  let b = Buffer.create n in
  String.iteri
    (fun i c ->
      let group =
        c = ' ' && i > 0 && i + 3 < n
        && is_digit s.[i - 1]
        && is_digit s.[i + 1] && is_digit s.[i + 2] && is_digit s.[i + 3]
        && (i + 4 = n || not (is_digit s.[i + 4]))
      in
      if not group then Buffer.add_char b c)
    s;
  Buffer.contents b

(* decimal numbers: digit runs with an optional fractional part *)
let numbers s =
  let n = String.length s in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if is_digit s.[i] then begin
      let j = ref i in
      while !j < n && is_digit s.[!j] do incr j done;
      if !j + 1 < n && s.[!j] = '.' && is_digit s.[!j + 1] then begin
        incr j;
        while !j < n && is_digit s.[!j] do incr j done
      end;
      scan !j (String.sub s i (!j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* (heading, body) for each "## " section *)
let split_sections text =
  let flush heading body acc =
    match heading with
    | None -> acc
    | Some h -> (h, String.concat "\n" (List.rev body)) :: acc
  in
  let heading, body, acc =
    List.fold_left
      (fun (heading, body, acc) line ->
        if String.starts_with ~prefix:"## " line then
          (Some line, [], flush heading body acc)
        else (heading, line :: body, acc))
      (None, [], [])
      (String.split_on_char '\n' text)
  in
  List.rev (flush heading body acc)

(* the text between each pair of "**" markers *)
let bold_spans body =
  List.filteri (fun i _ -> i mod 2 = 1) (Astring.String.cuts ~sep:"**" body)

let test_bold_numbers_in_goldens () =
  let doc = read_file "../EXPERIMENTS.md" in
  let checked = ref 0 in
  let missing =
    List.concat_map
      (fun (heading, body) ->
        let bold = List.concat_map (fun s -> numbers (ungroup s)) (bold_spans body) in
        match List.find_opt (fun (p, _) -> String.starts_with ~prefix:p heading) sections with
        | None ->
          if bold = [] then []
          else [ Printf.sprintf "%s: bold numbers but no golden mapped to it" heading ]
        | Some (_, campaign) ->
          let golden = numbers (read_file ("../bench/expected/" ^ campaign ^ ".txt")) in
          checked := !checked + List.length bold;
          List.filter_map
            (fun x ->
              if List.mem x golden then None
              else Some (Printf.sprintf "%s: bold %s not in %s.txt" heading x campaign))
            bold)
      (split_sections doc)
  in
  if missing <> [] then Alcotest.fail (String.concat "\n" missing);
  Alcotest.(check bool) "bold numbers were found" true (!checked > 40)

(* README's sample --mem-stats line is the effectiveness golden's. *)
let test_readme_mem_stats () =
  let prefix = "MEM_STATS effectiveness:" in
  let lines path = String.split_on_char '\n' (String.trim (read_file path)) in
  let golden = List.nth (List.rev (lines "../bench/expected/effectiveness.txt")) 0 in
  match List.filter (String.starts_with ~prefix) (lines "../README.md") with
  | [ sample ] -> Alcotest.(check string) "README's MEM_STATS sample" golden sample
  | samples ->
    Alcotest.failf "README has %d %S lines, expected one" (List.length samples) prefix

let () =
  Alcotest.run "docs"
    [
      ( "experiments",
        [
          Alcotest.test_case "bold numbers appear in the goldens" `Quick
            test_bold_numbers_in_goldens;
        ] );
      ( "readme",
        [
          Alcotest.test_case "MEM_STATS sample is the effectiveness golden" `Quick
            test_readme_mem_stats;
        ] );
    ]

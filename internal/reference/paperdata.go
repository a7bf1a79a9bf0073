// The paper's data: the two XML instances of Figure 1 and its sample
// keyword queries Q1–Q5, reconstructed for the tests that reproduce
// Figures 2, 3 and 4 and Examples 1–7.
//
// The instances are reconstructed from the Dewey codes, labels and keyword
// assignments quoted throughout the paper:
//
//   - Figure 1(a), the "Publications" instance: node 0.0 is a title node with
//     text "VLDB" (it is a keyword node for both "VLDB" and "title" in Q3);
//     node 0.2 holds two articles. Article 0.2.0 has authors/title/abstract/
//     references with the keyword placement of Examples 3 and 6; article
//     0.2.1 is the Skyline paper of Example 2 with authors Wong and Fu.
//   - Figure 1(b):(1), the basketball segment from [1]: a team "Grizzlies"
//     with three players; player 0.1.0 is Gassol (forward), 0.1.1 a guard and
//     0.1.2 another forward, giving MaxMatch its redundancy problem on Q4.

package reference

import "xks/internal/xmltree"

// Queries of Figure 1(b):(2), reconstructed from Examples 1, 2 and 5.
const (
	Q1 = "Wong Fu Dynamic Skyline Query"
	Q2 = "Liu keyword"
	Q3 = "VLDB title XML keyword search"
	Q4 = "Grizzlies position"
	// Q5 includes "Grizzlies": Example 2's narrative (players 0.1.1 and
	// 0.1.2 discarded as contributors, result showing Gassol in the team
	// Grizzlies) requires the fragment to be rooted at the team node, which
	// only happens when the team name is part of the query.
	Q5 = "Grizzlies Gassol position"
	// QLiuKeyword is the query of Examples 3 and 4 ("Liu Keyword"); it
	// coincides with Q2.
	QLiuKeyword = "Liu Keyword"
)

// Publications returns the Figure 1(a) instance.
//
// Dewey layout (matching every code quoted in the paper):
//
//	0           Publications
//	0.0         title   "VLDB"
//	0.1         year    "2008"
//	0.2         Articles
//	0.2.0       article
//	0.2.0.0     authors
//	0.2.0.0.0   author
//	0.2.0.0.0.0 name     "Zhen Liu"
//	0.2.0.1     title    "Match Relevant XML Keyword Search"
//	0.2.0.2     abstract "... keyword ... XML ... search ..."
//	0.2.0.3     references
//	0.2.0.3.0   ref      "Liu ... XML keyword search ..."
//	0.2.1       article
//	0.2.1.0     authors
//	0.2.1.0.0   author
//	0.2.1.0.0.0 name     "Raymond Wong"
//	0.2.1.0.1   author
//	0.2.1.0.1.0 name     "Ada Fu"
//	0.2.1.1     title    "Efficient Skyline Query with Variable User Preferences on Nominal Attributes"
//	0.2.1.2     abstract "Dynamic Skyline Query ..."
func Publications() *xmltree.Tree {
	return xmltree.Build(xmltree.E{Label: "Publications", Kids: []xmltree.E{
		{Label: "title", Text: "VLDB"},
		{Label: "year", Text: "2008"},
		{Label: "Articles", Kids: []xmltree.E{
			{Label: "article", Kids: []xmltree.E{
				{Label: "authors", Kids: []xmltree.E{
					{Label: "author", Kids: []xmltree.E{
						{Label: "name", Text: "Zhen Liu"},
					}},
				}},
				{Label: "title", Text: "Match Relevant XML Keyword Search"},
				{Label: "abstract", Text: "We study keyword search over XML data and identify relevant matches."},
				{Label: "references", Kids: []xmltree.E{
					{Label: "ref", Text: "Z. Liu and Y. Chen. Reasoning and identifying relevant matches for XML keyword search."},
				}},
			}},
			{Label: "article", Kids: []xmltree.E{
				{Label: "authors", Kids: []xmltree.E{
					{Label: "author", Kids: []xmltree.E{
						{Label: "name", Text: "Raymond Wong"},
					}},
					{Label: "author", Kids: []xmltree.E{
						{Label: "name", Text: "Ada Fu"},
					}},
				}},
				{Label: "title", Text: "Efficient Skyline Query with Variable User Preferences on Nominal Attributes"},
				{Label: "abstract", Text: "Dynamic Skyline Query processing under changing preferences."},
			}},
		}},
	}})
}

// Team returns the Figure 1(b):(1) segment borrowed from [1] (Liu & Chen).
//
// Dewey layout:
//
//	0         team
//	0.0       name    "Grizzlies"
//	0.1       players
//	0.1.0     player
//	0.1.0.0   name     "Gassol"
//	0.1.0.1   position "forward"
//	0.1.1     player
//	0.1.1.0   name     "Miller"
//	0.1.1.1   position "guard"
//	0.1.2     player
//	0.1.2.0   name     "Warrick"
//	0.1.2.1   position "forward"
func Team() *xmltree.Tree {
	return xmltree.Build(xmltree.E{Label: "team", Kids: []xmltree.E{
		{Label: "name", Text: "Grizzlies"},
		{Label: "players", Kids: []xmltree.E{
			{Label: "player", Kids: []xmltree.E{
				{Label: "name", Text: "Gassol"},
				{Label: "position", Text: "forward"},
			}},
			{Label: "player", Kids: []xmltree.E{
				{Label: "name", Text: "Miller"},
				{Label: "position", Text: "guard"},
			}},
			{Label: "player", Kids: []xmltree.E{
				{Label: "name", Text: "Warrick"},
				{Label: "position", Text: "forward"},
			}},
		}},
	}})
}
